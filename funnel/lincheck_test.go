package funnel_test

// Linearizability checking for the funnel: concurrent FetchAdd histories
// must admit a real-time-respecting total order in which every
// operation returns the sum of the initial value and all earlier
// amounts. This was the only public package without a lincheck suite;
// the stack and deque suites live next to their packages.

import (
	"sync"
	"testing"

	"secstack/funnel"
	"secstack/internal/lincheck"
	"secstack/internal/xrand"
)

// runHistory drives `threads` goroutines, each performing `opsPer`
// FetchAdds with mixed-sign amounts (including zero), and returns the
// recorded history.
func runHistory(f *funnel.Funnel, threads, opsPer int, seed uint64) []lincheck.CtrOp {
	rec := lincheck.NewCtrRecorder(threads)
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			h := f.Register()
			defer h.Close()
			rng := xrand.New(seed + uint64(t)*7919)
			for i := 0; i < opsPer; i++ {
				amt := int64(rng.Intn(7)) - 3 // mixed signs incl. zero
				inv := rec.Begin()
				ret := h.FetchAdd(amt)
				rec.Record(t, amt, ret, inv)
			}
		}(t)
	}
	wg.Wait()
	return rec.History()
}

// TestFunnelLinearizability checks many small concurrent histories of
// the funnel with the exhaustive counter checker. History sizes stay
// small enough (<= 16 ops) for the search to be fast.
func TestFunnelLinearizability(t *testing.T) {
	const (
		threads = 4
		opsPer  = 4
		rounds  = 40
	)
	for r := 0; r < rounds; r++ {
		f := funnel.New()
		h := runHistory(f, threads, opsPer, uint64(r)*104729+1)
		if !lincheck.CheckCounter(h, 0) {
			for _, op := range h {
				t.Logf("%s", op)
			}
			t.Fatalf("round %d: funnel history not linearizable", r)
		}
	}
}

// TestFunnelLinearizabilityVariants stresses the funnel-specific knobs:
// shard counts, the delegate's batch-growing backoff at both extremes,
// and a non-zero initial value.
func TestFunnelLinearizabilityVariants(t *testing.T) {
	variants := map[string]struct {
		opts    []funnel.Option
		initial int64
	}{
		"Agg1":    {[]funnel.Option{funnel.WithAggregators(1)}, 0},
		"Agg5":    {[]funnel.Option{funnel.WithAggregators(5)}, 0},
		"NoSpin":  {[]funnel.Option{funnel.WithDelegateSpin(0)}, 0},
		"BigSpin": {[]funnel.Option{funnel.WithDelegateSpin(2048)}, 0},
		"Initial": {[]funnel.Option{funnel.WithInitial(-17)}, -17},
		// Contention adaptivity (DESIGN.md §8): solo hardware fetch&adds
		// race batch-delegated ones. Frozen prefix-sum batches are
		// always recycled; one aggregator with no delegate spin cycles
		// them through a single free list as fast as the checker's
		// threads can freeze them.
		"Adaptive":        {[]funnel.Option{funnel.WithAdaptive(true)}, 0},
		"AdaptiveRecycle": {[]funnel.Option{funnel.WithAdaptive(true), funnel.WithAggregators(1)}, 0},
		"BatchRecycle":    {[]funnel.Option{funnel.WithAggregators(1), funnel.WithDelegateSpin(0)}, 0},
		// Adaptive delegate backoff (DESIGN.md §9): the spin controller
		// retunes delegation timing mid-history, alone and stacked on the
		// solo fetch&add.
		"AdaptiveSpin":     {[]funnel.Option{funnel.WithAdaptiveSpin(true), funnel.WithDelegateSpin(2048)}, 0},
		"AdaptiveSpinFull": {[]funnel.Option{funnel.WithAdaptiveSpin(true), funnel.WithAdaptive(true)}, 0},
	}
	for name, v := range variants {
		name, v := name, v
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for r := 0; r < 20; r++ {
				f := funnel.New(v.opts...)
				h := runHistory(f, 4, 4, uint64(r)*31337+5)
				if !lincheck.CheckCounter(h, v.initial) {
					for _, op := range h {
						t.Logf("%s", op)
					}
					t.Fatalf("round %d: funnel history not linearizable", r)
				}
			}
		})
	}
}

// TestFunnelLinearizabilityRecycledHandleSlots churns handle slots
// between operations, as the stack suite does: every operation may run
// on a thread id (and aggregator) another goroutine's closed handle
// just vacated.
func TestFunnelLinearizabilityRecycledHandleSlots(t *testing.T) {
	const (
		threads = 4
		opsPer  = 4
		rounds  = 25
	)
	for r := 0; r < rounds; r++ {
		f := funnel.New(funnel.WithMaxThreads(threads))
		rec := lincheck.NewCtrRecorder(threads)
		var wg sync.WaitGroup
		for tt := 0; tt < threads; tt++ {
			wg.Add(1)
			go func(tt int) {
				defer wg.Done()
				h := f.Register()
				rng := xrand.New(uint64(r)*65537 + uint64(tt)*7919)
				for i := 0; i < opsPer; i++ {
					amt := int64(rng.Intn(5)) - 2
					inv := rec.Begin()
					ret := h.FetchAdd(amt)
					rec.Record(tt, amt, ret, inv)
					// Churn the slot: the next operation runs on whatever
					// id the free list hands back.
					h.Close()
					h = f.Register()
				}
				h.Close()
			}(tt)
		}
		wg.Wait()
		if h := rec.History(); !lincheck.CheckCounter(h, 0) {
			for _, op := range h {
				t.Logf("%s", op)
			}
			t.Fatalf("round %d: recycled-slot funnel history not linearizable", r)
		}
	}
}

// runHistorySteal drives mixed histories in which every FetchAdd first
// attempts TryFetchAdd - the funnel's single-CAS steal primitive,
// bypassing announcement and delegation - and escalates to the full
// batched FetchAdd only when the CAS reports contention. Applied
// steals and delegated operations must linearize together.
func runHistorySteal(f *funnel.Funnel, threads, opsPer int, seed uint64) []lincheck.CtrOp {
	rec := lincheck.NewCtrRecorder(threads)
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			h := f.Register()
			defer h.Close()
			rng := xrand.New(seed + uint64(t)*7919)
			for i := 0; i < opsPer; i++ {
				amt := int64(rng.Intn(7)) - 3
				inv := rec.Begin()
				ret, applied := h.TryFetchAdd(amt)
				if !applied {
					ret = h.FetchAdd(amt) // contended steal: full protocol
				}
				rec.Record(t, amt, ret, inv)
			}
		}(t)
	}
	wg.Wait()
	return rec.History()
}

// TestFunnelLinearizabilityPutSteal checks TryFetchAdd against the
// exhaustive counter checker across the knobs it interacts with:
// stock delegation (scratch batches alongside recycled prefix-sum
// batches), adaptivity (steal CASes race solo ones and mode flips), and
// the adaptive delegate spin.
func TestFunnelLinearizabilityPutSteal(t *testing.T) {
	variants := map[string][]funnel.Option{
		"PutSteal":         nil,
		"PutStealAdaptive": {funnel.WithAdaptive(true)},
		"PutStealFull":     {funnel.WithAdaptive(true), funnel.WithAdaptiveSpin(true)},
	}
	for name, opt := range variants {
		name, opt := name, opt
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for r := 0; r < 20; r++ {
				f := funnel.New(opt...)
				h := runHistorySteal(f, 4, 4, uint64(r)*48611+3)
				if !lincheck.CheckCounter(h, 0) {
					for _, op := range h {
						t.Logf("%s", op)
					}
					t.Fatalf("round %d: put-steal history not linearizable", r)
				}
			}
		})
	}
}
