package pool

// Allocation-ceiling guards for the Put-overflow path, in-package
// because deterministically reaching the overflow sweep requires
// forcing the loss counter (a home solo CAS cannot be made to lose on
// demand from the public API; the organic path is exercised under
// contention by TestPutOverflowChurnWaves). The engine-level guard for
// the sweep's miss side (a contended TryPush allocates nothing) lives
// in internal/agg's TestTryPushStealBypassesProtocol.

import "testing"

// putOverflowCeiling matches the repository-wide steady-state budget
// (see the root alloc_guard_test.go): the true rate is 0, the headroom
// absorbs amortized EBR bag and free-list growth.
const putOverflowCeiling = 0.25

// TestAllocCeilingPutOverflowHit: a Put that overflows onto a quiet
// foreign shard is one TryPush CAS through the scratch batch, with the
// node drawn from the shard's reclamation pool - and the Get that
// steals it back retires the node into the same pool, so the whole
// spill/recover cycle allocates nothing in steady state.
func TestAllocCeilingPutOverflowHit(t *testing.T) {
	p := New[int64](
		WithShards(4),
		WithAdaptive(true),
		WithRecycling(),
	)
	h := p.Register()
	defer h.Close()
	for i := int64(0); i < 4096; i++ { // settle EBR epochs, free lists, scratch batches
		h.putMiss = p.overflow
		h.Put(i)
		h.Get()
	}
	avg := testing.AllocsPerRun(2000, func() {
		h.putMiss = p.overflow // the home CAS just lost its threshold'th round
		h.Put(7)
		if _, ok := h.Get(); !ok {
			t.Fatal("overflow cycle lost its element")
		}
	})
	if avg > putOverflowCeiling {
		t.Fatalf("Put overflow spill/recover cycle allocates %.3f allocs/op, ceiling %.2f",
			avg, putOverflowCeiling)
	}
}

// TestAllocCeilingElasticSteadyState: with the elastic controller
// armed and firing every few ops (period 64, far below the default so
// the measured window spans dozens of controller passes), a settled
// degree-1 pool must still cycle Put/Get allocation-free: the sync
// tick is two atomic loads and a counter, and an idle controller pass
// is a TryLock plus delta arithmetic - no window movement, no drain
// handle churn, no allocation.
func TestAllocCeilingElasticSteadyState(t *testing.T) {
	p := New[int64](
		WithShards(4),
		WithElasticShards(true),
		WithElasticPeriod(64),
		WithRecycling(),
	)
	h := p.Register()
	defer h.Close()
	for i := int64(0); i < 4096; i++ { // settle EBR epochs, free lists, controller streaks
		h.Put(i)
		h.Get()
	}
	if got := p.LiveShards(); got != 1 {
		t.Fatalf("LiveShards = %d after degree-1 warmup, want settled at 1", got)
	}
	avg := testing.AllocsPerRun(2000, func() {
		h.Put(7)
		if _, ok := h.Get(); !ok {
			t.Fatal("elastic steady-state cycle lost its element")
		}
	})
	if avg > putOverflowCeiling {
		t.Fatalf("elastic steady-state Put/Get cycle allocates %.3f allocs/op, ceiling %.2f",
			avg, putOverflowCeiling)
	}
}

// TestAllocCeilingPutSoloHome: the common case - an uncontended Put is
// one TryPush CAS on the home shard, likewise allocation-free with
// node recycling on.
func TestAllocCeilingPutSoloHome(t *testing.T) {
	p := New[int64](
		WithShards(4),
		WithAdaptive(true),
		WithRecycling(),
	)
	h := p.Register()
	defer h.Close()
	for i := int64(0); i < 4096; i++ {
		h.Put(i)
		h.Get()
	}
	avg := testing.AllocsPerRun(2000, func() {
		h.Put(7)
		if _, ok := h.Get(); !ok {
			t.Fatal("home cycle lost its element")
		}
	})
	if avg > putOverflowCeiling {
		t.Fatalf("home-solo Put/Get cycle allocates %.3f allocs/op, ceiling %.2f",
			avg, putOverflowCeiling)
	}
}
