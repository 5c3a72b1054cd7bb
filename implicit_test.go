// Implicit-session tests: the handle-free APIs of all four structures
// under churn, GC pressure and capacity exhaustion. The per-P cache
// behind those APIs (internal/isession) keeps up to GOMAXPROCS
// sessions registered for a structure's lifetime and lets its spill
// tier drop entries on every GC, so these tests race implicit
// operations against forced collections - exactly the regime where a
// dropped entry whose cleanup never ran would leak MaxThreads
// capacity. Run with -race; the slot handoff between a releasing and
// an acquiring goroutine on the same P is a publication the race
// detector should see as ordered.
package secstack_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"secstack/deque"
	"secstack/funnel"
	"secstack/pool"
	"secstack/queue"
	"secstack/stack"
)

// implicitMaxThreads leaves room for the per-P tier (up to GOMAXPROCS
// sessions parked for the structure's lifetime), transient spill
// entries, and the explicit headroom the leak check claims afterward.
func implicitMaxThreads() int { return 2*runtime.GOMAXPROCS(0) + 8 }

// assertExplicitHeadroom asserts that after implicit churn the
// structure can still hand out `want` explicit sessions: the implicit
// layer may keep its per-P capacity parked, and spill entries may
// linger until their cleanups run, but no session may be lost
// outright. Forced collections flush lagging cleanups; only a
// headroom shortfall that survives them is a leak.
func assertExplicitHeadroom(t *testing.T, want int, try func() (close func(), err error)) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var closers []func()
	defer func() {
		for _, c := range closers {
			c()
		}
	}()
	for len(closers) < want {
		c, err := try()
		if err == nil {
			closers = append(closers, c)
			continue
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d explicit sessions available after implicit churn: %v",
				len(closers), want, err)
		}
		runtime.GC() // flush cleanups of dropped spill entries
		time.Sleep(time.Millisecond)
	}
}

// implicitChurnWorkers is sized to oversubscribe GOMAXPROCS so implicit
// ops migrate between Ps mid-flight and contend for cached slots.
func implicitChurnWorkers() int { return 4 * runtime.GOMAXPROCS(0) }

// TestImplicitChurnStack drives the SEC stack through the handle-free
// API only, racing forced GCs against the cache's cleanups, then
// checks element conservation and that explicit capacity survived.
func TestImplicitChurnStack(t *testing.T) {
	s := stack.NewSEC[int64](
		stack.WithMaxThreads(implicitMaxThreads()),
		stack.WithAdaptive(true),
		stack.WithRecycling(),
	)
	var pushed, popped int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < implicitChurnWorkers(); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(w+1) << 32
			myPushed, myPopped := int64(0), int64(0)
			for i := int64(1); i <= 300; i++ {
				s.Push(base + i)
				myPushed++
				if i%2 == 0 {
					if _, ok := s.Pop(); ok {
						myPopped++
					}
				}
				if i%64 == 0 {
					runtime.GC() // drop spill entries, queue their cleanups
				}
			}
			mu.Lock()
			pushed += myPushed
			popped += myPopped
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	for {
		if _, ok := s.Pop(); !ok {
			break
		}
		popped++
	}
	if pushed != popped {
		t.Fatalf("implicit stack churn: pushed %d != popped %d", pushed, popped)
	}
	assertExplicitHeadroom(t, 8, func() (func(), error) {
		h, err := s.TryRegister()
		if err != nil {
			return nil, err
		}
		return h.Close, nil
	})
}

// TestImplicitChurnDeque is the deque's version of the churn test,
// through the handle-free PushLeft/PushRight/PopLeft/PopRight only.
func TestImplicitChurnDeque(t *testing.T) {
	d := deque.New[int64](deque.WithMaxThreads(implicitMaxThreads()))
	var pushed, popped int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < implicitChurnWorkers(); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(w+1) << 32
			myPushed, myPopped := int64(0), int64(0)
			for i := int64(1); i <= 200; i++ {
				if (w+int(i))%2 == 0 {
					d.PushLeft(base + i)
				} else {
					d.PushRight(base + i)
				}
				myPushed++
				if i%3 == 0 {
					if _, ok := d.PopLeft(); ok {
						myPopped++
					}
				}
				if i%64 == 0 {
					runtime.GC()
				}
			}
			mu.Lock()
			pushed += myPushed
			popped += myPopped
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	for {
		if _, ok := d.PopRight(); !ok {
			break
		}
		popped++
	}
	if pushed != popped {
		t.Fatalf("implicit deque churn: pushed %d != popped %d", pushed, popped)
	}
	assertExplicitHeadroom(t, 8, func() (func(), error) {
		h, err := d.TryRegister()
		if err != nil {
			return nil, err
		}
		return h.Close, nil
	})
}

// TestImplicitChurnPool is the pool's version of the churn test,
// through the handle-free Get/Put only.
func TestImplicitChurnPool(t *testing.T) {
	p := pool.New[int64](pool.WithMaxThreads(implicitMaxThreads()), pool.WithShards(3))
	var put, got int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < implicitChurnWorkers(); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(w+1) << 32
			myPut, myGot := int64(0), int64(0)
			for i := int64(1); i <= 200; i++ {
				p.Put(base + i)
				myPut++
				if i%2 == 0 {
					if _, ok := p.Get(); ok {
						myGot++
					}
				}
				if i%64 == 0 {
					runtime.GC()
				}
			}
			mu.Lock()
			put += myPut
			got += myGot
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	for {
		if _, ok := p.Get(); !ok {
			break
		}
		got++
	}
	if put != got {
		t.Fatalf("implicit pool churn: put %d != got %d", put, got)
	}
	if p.Size() != 0 {
		t.Fatalf("implicit pool churn: Size=%d after full drain", p.Size())
	}
	assertExplicitHeadroom(t, 8, func() (func(), error) {
		h, err := p.TryRegister()
		if err != nil {
			return nil, err
		}
		return h.Close, nil
	})
}

// TestImplicitChurnFunnel is the funnel's version of the churn test,
// through the handle-free Add only.
func TestImplicitChurnFunnel(t *testing.T) {
	f := funnel.New(funnel.WithMaxThreads(implicitMaxThreads()), funnel.WithAdaptive(true))
	var want int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < implicitChurnWorkers(); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			my := int64(0)
			for i := int64(1); i <= 300; i++ {
				f.Add(i)
				my += i
				if i%64 == 0 {
					runtime.GC()
				}
			}
			mu.Lock()
			want += my
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	if f.Load() != want {
		t.Fatalf("implicit funnel churn: counter %d != sum of adds %d", f.Load(), want)
	}
	assertExplicitHeadroom(t, 8, func() (func(), error) {
		h, err := f.TryRegister()
		if err != nil {
			return nil, err
		}
		return h.Close, nil
	})
}

// TestImplicitChurnQueue drives the bounded queue through the
// handle-free API only, racing forced GCs against the cache's
// cleanups. The queue's capacity bound adds a shape the other
// structures' churns lack: enqueues may be *rejected*, so conservation
// counts admitted enqueues (Enqueue's boolean), not attempts.
func TestImplicitChurnQueue(t *testing.T) {
	q := queue.New[int64](
		queue.WithMaxThreads(implicitMaxThreads()),
		queue.WithCapacity(64), // small: keeps full rejections in play
		queue.WithAdaptive(true),
	)
	var enq, deq int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < implicitChurnWorkers(); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(w+1) << 32
			myEnq, myDeq := int64(0), int64(0)
			for i := int64(1); i <= 200; i++ {
				if q.TryEnqueue(base + i) {
					myEnq++
				}
				if i%2 == 0 {
					if _, ok := q.TryDequeue(); ok {
						myDeq++
					}
				}
				if i%64 == 0 {
					runtime.GC()
				}
			}
			mu.Lock()
			enq += myEnq
			deq += myDeq
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	for {
		if _, ok := q.Dequeue(); !ok {
			break
		}
		deq++
	}
	if enq != deq {
		t.Fatalf("implicit queue churn: admitted %d != dequeued %d", enq, deq)
	}
	if q.Len() != 0 {
		t.Fatalf("implicit queue churn: Len=%d after full drain", q.Len())
	}
	assertExplicitHeadroom(t, 8, func() (func(), error) {
		h, err := q.TryRegister()
		if err != nil {
			return nil, err
		}
		return h.Close, nil
	})
}

// TestImplicitExhaustionPrompt is the regression test for the
// pre-affinity borrow loop, which forced up to 64 garbage collections
// before surfacing exhaustion (turning a misconfigured MaxThreads
// into a multi-second stall). With every session held explicitly, an
// implicit op must fail fast: at most one forced collection, then the
// exhaustion panic.
func TestImplicitExhaustionPrompt(t *testing.T) {
	s := stack.NewSEC[int64](stack.WithMaxThreads(2))
	h1, h2 := s.Register(), s.Register()
	defer h1.Close()
	defer h2.Close()

	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("implicit Push with all sessions held did not panic")
			}
		}()
		s.Push(1)
	}()
	elapsed := time.Since(start)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	if forced := after.NumGC - before.NumGC; forced > 3 {
		t.Fatalf("exhausted implicit op forced %d collections, want <= 3 (one forced + slack)", forced)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("exhausted implicit op took %v to surface, want prompt", elapsed)
	}
}
