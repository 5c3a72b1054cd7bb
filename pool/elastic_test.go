package pool

// Elastic shard-controller tests, in-package because deterministic
// convergence needs the controller's own levers: steal-tally injection
// (the organic path needs real CAS losses, which a 1-CPU test box
// cannot force on demand), direct controller passes, and - for the
// churn chaos - window moves forced under the controller mutex. The
// organic end-to-end trajectory is exercised by secbench -fig elastic.

import (
	"sync"
	"testing"
)

// pass injects one both-direction steal-miss window and runs one
// controller pass - the minimal deterministic grow vote.
func growPass[T any](p *Pool[T]) {
	p.st.putMiss.Add(1)
	p.st.getMiss.Add(1)
	p.maybeScale()
}

// growTo widens the live window to k via injected grow votes.
func growTo[T any](t *testing.T, p *Pool[T], k int) {
	t.Helper()
	for i := 0; i < 8*elasticStreak && p.LiveShards() < k; i++ {
		growPass(p)
	}
	if got := p.LiveShards(); got != k {
		t.Fatalf("LiveShards = %d after injected grow votes, want %d", got, k)
	}
}

func TestElasticStartsAtOneShard(t *testing.T) {
	p := New[int](WithShards(4), WithElasticShards(true))
	if got := p.LiveShards(); got != 1 {
		t.Fatalf("elastic pool LiveShards = %d at construction, want 1", got)
	}
	if got := New[int](WithShards(4)).LiveShards(); got != 4 {
		t.Fatalf("static pool LiveShards = %d, want 4", got)
	}
	if got := p.Snapshot().LiveShards; got != 1 {
		t.Fatalf("Snapshot().LiveShards = %d without WithMetrics, want 1 (gauge is metrics-independent)", got)
	}
}

// TestElasticConvergesGrowShrink is the CI convergence gate: the
// controller must move the window up under sustained bidirectional
// steal-miss pressure (elasticStreak agreeing windows, epoch bumped)
// and back down to one shard at degree 1 (every live shard solo, steal
// counters idle), draining and fencing each retiring shard on the way.
func TestElasticConvergesGrowShrink(t *testing.T) {
	p := New[int](WithShards(4), WithElasticShards(true), WithElasticPeriod(8))

	// One disagreeing window between votes must reset the streak.
	growPass(p)
	p.maybeScale() // idle window: not a grow vote
	growPass(p)
	if got := p.LiveShards(); got != 1 {
		t.Fatalf("LiveShards = %d after interrupted grow streak, want 1", got)
	}
	// Consecutive votes grow, one step per streak.
	growPass(p)
	if got := p.LiveShards(); got != 2 {
		t.Fatalf("LiveShards = %d after %d consecutive grow votes, want 2", got, elasticStreak)
	}
	if got := p.ScaleEpoch(); got == 0 {
		t.Fatal("ScaleEpoch did not advance on grow")
	}
	growTo(t, p, 4)
	// At the ceiling further votes are no-ops.
	growPass(p)
	growPass(p)
	if got := p.LiveShards(); got != 4 {
		t.Fatalf("LiveShards = %d grew past the ceiling", got)
	}

	// Degree-1 churn: one handle cycling Put/Get stays on its home
	// shard's solo fast path, so every controller window is steal-idle
	// with all live shards solo - the controller must walk the window
	// back to one shard, fencing each drained shard (no elements are
	// pooled, so each drain observes empty immediately).
	h := p.Register()
	defer h.Close()
	for i := 0; i < 4096 && p.LiveShards() > 1; i++ {
		h.Put(i)
		h.Get()
	}
	if got := p.LiveShards(); got != 1 {
		t.Fatalf("LiveShards = %d after degree-1 churn, want 1", got)
	}
	if d := p.draining.Load(); d != -1 {
		t.Fatalf("draining = %d after shrink settled, want -1 (fenced)", d)
	}
	if got := p.st.shrinks.Load(); got != 3 {
		t.Fatalf("shrinks = %d walking 4 -> 1, want 3", got)
	}
	// The handle must have re-homed into the shrunken window.
	if h.home != 0 {
		t.Fatalf("handle home = %d after shrink to 1 live shard, want 0", h.home)
	}
}

// TestElasticLoadSignalGrow pins the secd wiring: an external load
// gauge above the window's session budget grows the pool even at
// degree 1, and takes precedence over the simultaneous shrink vote
// (all shards solo, idle steals).
func TestElasticLoadSignalGrow(t *testing.T) {
	p := New[int](WithShards(4), WithElasticShards(true), WithElasticPeriod(8))
	p.SetLoadSignal(func() int { return 100 }) // > 4 shards * 16 sessions
	h := p.Register()
	defer h.Close()
	for i := 0; i < 4096 && p.LiveShards() < 4; i++ {
		h.Put(i)
		h.Get()
	}
	if got := p.LiveShards(); got != 4 {
		t.Fatalf("LiveShards = %d under load signal 100, want ceiling 4", got)
	}
}

// TestElasticShrinkDrainConservation: elements parked on retiring
// shards must all survive the drain - migrated into the live window by
// the controller's TryPop sweep - and the fences must land (draining
// resolves to -1, fenced shards end empty).
func TestElasticShrinkDrainConservation(t *testing.T) {
	p := New[int](WithShards(4), WithElasticShards(true),
		WithElasticPeriod(1<<30), // controller runs only when the test calls it
		WithMetrics())
	growTo(t, p, 4)

	// Four handles, homed round-robin across the full window, park
	// distinct values on every shard.
	const per = 50
	handles := make([]*Handle[int], 4)
	homes := map[int]bool{}
	for i := range handles {
		handles[i] = p.Register()
		homes[handles[i].home] = true
		for j := 0; j < per; j++ {
			handles[i].Put(i*per + j)
		}
	}
	if len(homes) != 4 {
		t.Fatalf("round-robin homing covered %d shards, want 4 (homes %v)", len(homes), homes)
	}

	// Idle controller windows walk the pool down to one shard; each
	// step must drain the retiring shard's ~50 elements into the live
	// window before fencing it.
	for i := 0; i < 8*elasticStreak && p.LiveShards() > 1; i++ {
		p.maybeScale()
	}
	if got := p.LiveShards(); got != 1 {
		t.Fatalf("LiveShards = %d after idle windows, want 1", got)
	}
	if d := p.draining.Load(); d != -1 {
		t.Fatalf("draining = %d after drains settled, want -1", d)
	}
	for i := 1; i < 4; i++ {
		if n := p.shards[i].Len(); n != 0 {
			t.Fatalf("fenced shard %d still holds %d elements", i, n)
		}
	}
	if got := p.st.migrated.Load(); got == 0 {
		t.Fatal("drain migrated no elements despite populated retiring shards")
	}
	snap := p.Snapshot()
	if snap.ShardShrinks != 3 || snap.Migrated != p.st.migrated.Load() {
		t.Fatalf("Snapshot resize counters = shrinks %d migrated %d, want 3/%d",
			snap.ShardShrinks, snap.Migrated, p.st.migrated.Load())
	}

	// Value-exact conservation: everything put comes back exactly once.
	seen := map[int]int{}
	c := p.Register()
	defer c.Close()
	for {
		v, ok := c.Get()
		if !ok {
			break
		}
		seen[v]++
	}
	if len(seen) != 4*per {
		t.Fatalf("recovered %d distinct values after drain, want %d", len(seen), 4*per)
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("value %d recovered %d times", v, n)
		}
	}
	for _, h := range handles {
		h.Close()
	}
}

// TestElasticOverflowBoundedToLiveWindow: the Put-overflow sweep must
// spill inside the live window only - a fenced shard receiving fresh
// elements would never stay drained.
func TestElasticOverflowBoundedToLiveWindow(t *testing.T) {
	p := New[int](WithShards(4), WithElasticShards(true),
		WithElasticPeriod(1<<30), WithMetrics())
	growTo(t, p, 2)
	h := p.Register()
	defer h.Close()
	for i := 0; i < 16; i++ {
		h.putMiss = p.overflow // the home CAS just lost its threshold'th round
		h.Put(i)
	}
	if n := p.shards[2].Len() + p.shards[3].Len(); n != 0 {
		t.Fatalf("overflow sweep spilled %d elements above the live window", n)
	}
	if got := p.Size(); got != 16 {
		t.Fatalf("Size = %d after overflow Puts, want 16", got)
	}
}

// TestElasticChurnWaves is the elastic churn stress (run under -race
// in CI): waves of producer/thief handles churn across the pool while
// a chaos goroutine forces the live window up and down mid-wave - grow
// racing in-flight Puts, shrink draining shards with in-flight steals,
// epoch-driven re-homing racing both - and takes concurrent Snapshots
// (the resize-safety claim). Conservation is value-exact.
func TestElasticChurnWaves(t *testing.T) {
	const maxThreads, waves, per = 9, 4, 200
	p := New[int64](
		WithMaxThreads(maxThreads),
		WithShards(4),
		WithElasticShards(true),
		WithElasticPeriod(32),
		WithAdaptiveSpin(true),
		WithMetrics(),
	)
	var put int64
	counts := make(map[int64]int)
	var mu sync.Mutex
	for wave := 0; wave < waves; wave++ {
		var workers sync.WaitGroup
		stop := make(chan struct{})
		chaosDone := make(chan struct{})
		go func() { // chaos: force the window both ways under the controller mutex
			defer close(chaosDone)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p.ctl.mu.Lock()
				if k := int(p.liveK.Load()); i%2 == 0 && k < len(p.shards) {
					p.grow(k)
				} else if k > 1 && p.draining.Load() < 0 {
					p.beginShrink(k)
				}
				p.ctl.mu.Unlock()
				snap := p.Snapshot()
				if snap.LiveShards < 1 || snap.LiveShards > 4 {
					panic("snapshot observed live window outside [1, 4]")
				}
			}
		}()
		for w := 0; w < maxThreads-1; w++ {
			workers.Add(1)
			go func(wave, w int) {
				defer workers.Done()
				h := p.Register()
				defer h.Close()
				base := int64(wave*maxThreads+w) << 32
				myPut := int64(0)
				myGot := make(map[int64]int)
				if w%2 == 0 {
					for i := int64(1); i <= per; i++ {
						h.Put(base + i)
						myPut++
					}
				} else {
					for i := 0; i < per; i++ {
						if v, ok := h.Get(); ok {
							myGot[v]++
						}
					}
				}
				mu.Lock()
				put += myPut
				for v, c := range myGot {
					counts[v] += c
				}
				mu.Unlock()
			}(wave, w)
		}
		// Chaos keeps resizing for the whole wave: it stops only after
		// every worker has finished its churn.
		workers.Wait()
		close(stop)
		<-chaosDone
	}
	h := p.Register()
	defer h.Close()
	for {
		v, ok := h.Get()
		if !ok {
			break
		}
		counts[v]++
	}
	for v, c := range counts {
		if c != 1 {
			t.Fatalf("elastic churn: value %d recovered %d times", v, c)
		}
	}
	if int64(len(counts)) != put {
		t.Fatalf("elastic churn: recovered %d distinct values, put %d", len(counts), put)
	}
	if p.Size() != 0 {
		t.Fatalf("elastic churn: Size=%d after full drain", p.Size())
	}
}
