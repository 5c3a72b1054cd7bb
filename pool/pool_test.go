package pool

import (
	"sync"
	"testing"
)

func TestPutGetSingle(t *testing.T) {
	p := New[int]()
	h := p.Register()
	h.Put(42)
	if v, ok := h.Get(); !ok || v != 42 {
		t.Fatalf("Get = (%d, %v), want (42, true)", v, ok)
	}
	if _, ok := h.Get(); ok {
		t.Fatal("Get on empty pool succeeded")
	}
}

func TestGetStealsAcrossShards(t *testing.T) {
	p := New[int](WithShards(4))
	producers := make([]*Handle[int], 8)
	for i := range producers {
		producers[i] = p.Register()
		producers[i].Put(i)
	}
	// One consumer must be able to drain everything regardless of which
	// shards the elements landed on.
	c := p.Register()
	seen := make(map[int]bool)
	for i := 0; i < len(producers); i++ {
		v, ok := c.Get()
		if !ok {
			t.Fatalf("Get #%d failed with %d elements remaining", i, p.Size())
		}
		if seen[v] {
			t.Fatalf("value %d returned twice", v)
		}
		seen[v] = true
	}
	if p.Size() != 0 {
		t.Fatalf("Size = %d after drain", p.Size())
	}
}

func TestDefaultsApplied(t *testing.T) {
	p := New[int]()
	if len(p.shards) != 4 {
		t.Fatalf("default shards = %d, want 4", len(p.shards))
	}
}

func TestConcurrentConservation(t *testing.T) {
	p := New[int64](WithShards(3))
	const g, per = 8, 3000
	var wg sync.WaitGroup
	var mu sync.Mutex
	counts := make(map[int64]int)
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := p.Register()
			local := make(map[int64]int)
			for i := 0; i < per; i++ {
				v := int64(w)<<32 | int64(i)
				h.Put(v)
				if got, ok := h.Get(); ok {
					local[got]++
				}
			}
			mu.Lock()
			for k, c := range local {
				counts[k] += c
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	h := p.Register()
	for {
		v, ok := h.Get()
		if !ok {
			break
		}
		counts[v]++
	}
	for v, c := range counts {
		if c != 1 {
			t.Fatalf("value %d seen %d times", v, c)
		}
	}
	if len(counts) != g*per {
		t.Fatalf("recovered %d values, want %d", len(counts), g*per)
	}
}

func TestTryRegisterExhaustion(t *testing.T) {
	p := New[int](WithMaxThreads(2), WithShards(2))
	a, err := p.TryRegister()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.TryRegister(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.TryRegister(); err == nil {
		t.Fatal("TryRegister succeeded past MaxThreads live handles")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Register did not panic at exhaustion")
			}
		}()
		p.Register()
	}()
	a.Close()
	b, err := p.TryRegister()
	if err != nil {
		t.Fatalf("TryRegister after Close: %v", err)
	}
	b.Close()
}

// TestStealServesForeignShards pins the peek-then-steal path directly:
// a consumer whose home shard is empty must recover elements parked on
// foreign shards through the steal sweep (with adaptivity off, so the
// victims' stacks are in batched mode and the steal still lands).
func TestStealServesForeignShards(t *testing.T) {
	for _, adaptive := range []bool{false, true} {
		p := New[int](WithShards(4), WithAdaptive(adaptive))
		producers := make([]*Handle[int], 8)
		for i := range producers {
			producers[i] = p.Register()
			producers[i].Put(i)
		}
		c := p.Register() // home 0; shard 0 holds producers 0 and 4's elements
		seen := make(map[int]bool)
		for i := 0; i < len(producers); i++ {
			v, ok := c.Get()
			if !ok {
				t.Fatalf("adaptive=%v: Get #%d failed with %d elements remaining", adaptive, i, p.Size())
			}
			if seen[v] {
				t.Fatalf("adaptive=%v: value %d returned twice", adaptive, v)
			}
			seen[v] = true
		}
		if _, ok := c.Get(); ok {
			t.Fatalf("adaptive=%v: Get on drained pool succeeded", adaptive)
		}
	}
}

// TestStealChurnWaves is the steal-path churn stress (run under -race
// in CI): 4 waves of MaxThreads handles, half of them thieves that
// never Put - their home shards stay empty, so every element they
// recover crossed shards through TryPop (or the contended-steal
// fallback). Adaptive mode, batch recycling and adaptive spin are all
// on, so steals race solo CASes, full-protocol combiners and batch
// reuse on the victim shards. Conservation is value-exact: every
// value put comes back exactly once (a compensating double-pop plus
// lost element would keep the aggregate counts equal; per-value
// tallies catch it).
func TestStealChurnWaves(t *testing.T) {
	const maxThreads, waves, per = 8, 4, 200
	p := New[int64](
		WithMaxThreads(maxThreads),
		WithShards(3),
		WithAdaptive(true),
		WithAdaptiveSpin(true),
	)
	var put int64
	counts := make(map[int64]int)
	var mu sync.Mutex
	for wave := 0; wave < waves; wave++ {
		var wg sync.WaitGroup
		for w := 0; w < maxThreads; w++ {
			wg.Add(1)
			go func(wave, w int) {
				defer wg.Done()
				h := p.Register()
				defer h.Close()
				base := int64(wave*maxThreads+w) << 32
				myPut := int64(0)
				myGot := make(map[int64]int)
				if w%2 == 0 { // producer: feeds its home shard
					for i := int64(1); i <= per; i++ {
						h.Put(base + i)
						myPut++
					}
				} else { // thief: drains cross-shard only
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
		wg.Wait()
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
			t.Fatalf("steal churn: value %d recovered %d times", v, c)
		}
	}
	if int64(len(counts)) != put {
		t.Fatalf("steal churn: recovered %d distinct values, put %d", len(counts), put)
	}
	if p.Size() != 0 {
		t.Fatalf("steal churn: Size=%d after full drain", p.Size())
	}
}

func TestSizeQuiescent(t *testing.T) {
	p := New[int](WithShards(2))
	h := p.Register()
	for i := 0; i < 10; i++ {
		h.Put(i)
	}
	if p.Size() != 10 {
		t.Fatalf("Size = %d, want 10", p.Size())
	}
}

// TestPutOverflowsToQuietShard pins the Put-overflow path
// deterministically: a handle whose home solo CAS has (by forced
// counter, as the threshold's worth of lost rounds would) saturated
// must spill its next Put onto a foreign shard through TryPush - home
// untouched - decay its loss count by one, and record the steal hit.
// The decayed counter means the following Put probes home again and,
// finding it quiet, resets.
func TestPutOverflowsToQuietShard(t *testing.T) {
	p := New[int](WithShards(4), WithMetrics())
	h := p.Register()
	defer h.Close()

	h.putMiss = p.overflow // the home CAS just lost its threshold'th round
	h.Put(42)
	if got := p.shards[h.home].Len(); got != 0 {
		t.Fatalf("overflowing Put left %d elements on the saturated home shard", got)
	}
	if got := p.Size(); got != 1 {
		t.Fatalf("Size = %d after overflow Put, want 1", got)
	}
	if got := h.putMiss; got != p.overflow-1 {
		t.Fatalf("putMiss after steal hit = %d, want decayed %d", got, p.overflow-1)
	}
	snap := p.Snapshot()
	if snap.PutStealHits != 1 || snap.PutStealMisses != 0 {
		t.Fatalf("put-steal counters = %d/%d, want 1/0", snap.PutStealHits, snap.PutStealMisses)
	}

	// Home recovered: the next Put probes home, lands there, resets.
	h.Put(43)
	if got := p.shards[h.home].Len(); got != 1 {
		t.Fatalf("post-recovery Put left %d elements on home, want 1", got)
	}
	if h.putMiss != 0 {
		t.Fatalf("putMiss after home success = %d, want 0", h.putMiss)
	}

	// Everything drains through Get regardless of where it spilled.
	seen := map[int]bool{}
	for i := 0; i < 2; i++ {
		v, ok := h.Get()
		if !ok {
			t.Fatalf("Get #%d failed with %d elements left", i, p.Size())
		}
		seen[v] = true
	}
	if !seen[42] || !seen[43] {
		t.Fatalf("drain recovered %v, want {42, 43}", seen)
	}
}

// TestPutOverflowDisabled: WithPutOverflow(0) pins every Put to its
// home shard no matter how many losses accumulated.
func TestPutOverflowDisabled(t *testing.T) {
	p := New[int](WithShards(4), WithPutOverflow(0), WithMetrics())
	h := p.Register()
	defer h.Close()
	h.putMiss = 1 << 20 // even absurd loss counts must not divert
	h.Put(1)
	h.Put(2)
	if got := p.shards[h.home].Len(); got != 2 {
		t.Fatalf("home shard holds %d elements with overflow disabled, want 2", got)
	}
	if snap := p.Snapshot(); snap.PutStealHits != 0 || snap.PutStealMisses != 0 {
		t.Fatalf("put-steal counters = %d/%d with overflow disabled, want 0/0",
			snap.PutStealHits, snap.PutStealMisses)
	}
}

// TestPutOverflowSingleShard: with one shard there is nowhere to
// spill; Put must serve locally and never sweep.
func TestPutOverflowSingleShard(t *testing.T) {
	p := New[int](WithShards(1), WithMetrics())
	h := p.Register()
	defer h.Close()
	h.putMiss = p.overflow
	h.Put(5)
	if v, ok := h.Get(); !ok || v != 5 {
		t.Fatalf("Get = (%d, %v), want (5, true)", v, ok)
	}
	if snap := p.Snapshot(); snap.PutStealHits != 0 || snap.PutStealMisses != 0 {
		t.Fatalf("single-shard pool recorded put steals: %d/%d", snap.PutStealHits, snap.PutStealMisses)
	}
}

// TestPutOverflowChurnWaves is the overflow-path churn stress (run
// under -race in CI): waves of handles whose producers all share one
// home shard Put through the overflow machinery (threshold 1, so any
// solo loss diverts) while thieves drain cross-shard, racing solo
// CASes, TryPush spills, TryPop steals, full-protocol combiners and
// batch reuse. Conservation is value-exact: every value put comes back
// exactly once.
func TestPutOverflowChurnWaves(t *testing.T) {
	const maxThreads, waves, per = 8, 4, 200
	p := New[int64](
		WithMaxThreads(maxThreads),
		WithShards(3),
		WithPutOverflow(1),
		WithAdaptive(true),
		WithRecycling(),
		WithMetrics(),
	)
	var put int64
	counts := make(map[int64]int)
	var mu sync.Mutex
	for wave := 0; wave < waves; wave++ {
		var wg sync.WaitGroup
		for w := 0; w < maxThreads; w++ {
			wg.Add(1)
			go func(wave, w int) {
				defer wg.Done()
				h := p.Register()
				defer h.Close()
				base := int64(wave*maxThreads+w) << 32
				myPut := int64(0)
				myGot := make(map[int64]int)
				if w%2 == 0 { // producer: hammers its home shard, overflowing on contention
					for i := int64(1); i <= per; i++ {
						h.Put(base + i)
						myPut++
					}
				} else { // thief: drains cross-shard
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
		wg.Wait()
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
			t.Fatalf("overflow churn: value %d recovered %d times", v, c)
		}
	}
	if int64(len(counts)) != put {
		t.Fatalf("overflow churn: recovered %d distinct values, put %d", len(counts), put)
	}
	if p.Size() != 0 {
		t.Fatalf("overflow churn: Size=%d after full drain", p.Size())
	}
}

// TestGetStealMetrics mirrors the Put-overflow counter tests on the
// Get side: a consumer whose home shard is empty must record its
// cross-shard steals, so the degree tables show both balancing
// directions (DESIGN.md §10).
func TestGetStealMetrics(t *testing.T) {
	p := New[int](WithShards(2), WithMetrics())
	producer := p.Register() // home 0
	thief := p.Register()    // home 1: its shard stays empty
	defer producer.Close()
	defer thief.Close()

	const n = 5
	for i := 0; i < n; i++ {
		producer.Put(i)
	}
	for i := 0; i < n; i++ {
		if _, ok := thief.Get(); !ok {
			t.Fatalf("Get #%d failed with %d elements pooled", i, p.Size())
		}
	}
	s := p.Snapshot()
	if s.GetStealHits != n {
		t.Fatalf("GetStealHits = %d, want %d (every Get crossed shards)", s.GetStealHits, n)
	}
	if s.GetStealMisses != 0 {
		t.Fatalf("GetStealMisses = %d on an uncontended pool", s.GetStealMisses)
	}
	if pct := s.GetStealPct(); pct != 100 {
		t.Fatalf("GetStealPct = %v, want 100", pct)
	}
	// A sweep that observes every shard uncontendedly empty is an
	// answer, not a balancing failure: no counter moves.
	if _, ok := thief.Get(); ok {
		t.Fatal("Get on drained pool succeeded")
	}
	if s := p.Snapshot(); s.GetStealHits != n || s.GetStealMisses != 0 {
		t.Fatalf("empty sweep moved steal counters: %d/%d", s.GetStealHits, s.GetStealMisses)
	}
}
