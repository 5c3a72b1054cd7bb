package queue_test

import (
	"sync"
	"testing"

	"secstack/internal/lincheck"
	"secstack/internal/xrand"
	"secstack/queue"
)

// lcCap is the capacity the linearizability histories run at: small
// enough that full-queue rejections appear alongside empty-queue ones,
// so the checker exercises every result shape the API can produce.
const lcCap = 3

// runQHistory drives `threads` goroutines, each performing `opsPer`
// random operations on q through explicit handles, and returns the
// recorded history.
func runQHistory(q *queue.Queue[int64], threads, opsPer int, seed uint64) []lincheck.QOp {
	rec := lincheck.NewQRecorder(threads)
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			h := q.Register()
			defer h.Close()
			rng := xrand.New(seed + uint64(t)*7919)
			base := int64(t+1) << 32
			for i := 0; i < opsPer; i++ {
				switch rng.Intn(4) {
				case 0, 1:
					v := base + int64(i)
					inv := rec.Begin()
					ok := h.Enqueue(v)
					rec.RecordEnqueue(t, v, ok, inv)
				case 2:
					inv := rec.Begin()
					v, ok := h.Dequeue()
					rec.RecordDequeue(t, v, ok, inv)
				default:
					// The Try* forms must linearize with the full protocol:
					// a solo-CAS apply and a batch-protocol apply of the
					// same queue interleave in these histories.
					v := base + int64(i) + (1 << 24)
					inv := rec.Begin()
					ok := h.TryEnqueue(v)
					rec.RecordEnqueue(t, v, ok, inv)
				}
			}
		}(t)
	}
	wg.Wait()
	return rec.History()
}

// TestQueueLinearizabilityVariants checks many small concurrent
// histories against the exhaustive FIFO checker across the engine
// knobs the queue composes with: the solo fast path, batch recycling,
// the adaptive freezer backoff, and shard-count extremes.
func TestQueueLinearizabilityVariants(t *testing.T) {
	variants := map[string][]queue.Option{
		"Base":    nil,
		"Agg1":    {queue.WithAggregators(1)},
		"Agg5":    {queue.WithAggregators(5)},
		"NoSpin":  {queue.WithFreezerSpin(0)},
		"BigSpin": {queue.WithFreezerSpin(2048)},
		// Contention adaptivity (DESIGN.md §8): solo-CAS applies race
		// full batch-protocol ones on the same ring.
		"Adaptive": {queue.WithAdaptive(true)},
		// Frozen batches are always recycled; one aggregator with no
		// freezer spin cycles them through a single free list as fast
		// as the checker's threads can freeze them.
		"BatchRecycle":    {queue.WithAggregators(1), queue.WithFreezerSpin(0)},
		"AdaptiveRecycle": {queue.WithAdaptive(true), queue.WithMetrics()},
		// Adaptive freezer backoff (DESIGN.md §9): freeze timing retunes
		// mid-history.
		"AdaptiveSpin":    {queue.WithAdaptiveSpin(true)},
		"AdaptiveSpinBig": {queue.WithAdaptiveSpin(true), queue.WithFreezerSpin(2048)},
		"Everything":      {queue.WithAdaptive(true), queue.WithAdaptiveSpin(true), queue.WithAggregators(3)},
	}
	for name, opt := range variants {
		name, opt := name, opt
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for r := 0; r < 20; r++ {
				q := queue.New[int64](append(opt, queue.WithCapacity(lcCap))...)
				h := runQHistory(q, 4, 4, uint64(r)*31337+5)
				if !lincheck.CheckQueue(h, lcCap) {
					for _, op := range h {
						t.Logf("%s", op)
					}
					t.Fatalf("round %d: history not linearizable", r)
				}
			}
		})
	}
}

// TestQueueLinearizabilityRecycledHandleSlots checks linearizability
// while handle slots churn: MaxThreads equals the goroutine count and
// every goroutine closes and re-registers its handle between
// operations, so each operation may run on a thread id (and home
// shard) that another goroutine's closed handle just vacated.
func TestQueueLinearizabilityRecycledHandleSlots(t *testing.T) {
	const (
		threads = 4
		opsPer  = 4
		rounds  = 25
	)
	for r := 0; r < rounds; r++ {
		q := queue.New[int64](queue.WithCapacity(lcCap), queue.WithMaxThreads(threads),
			queue.WithAdaptive(true))
		rec := lincheck.NewQRecorder(threads)
		var wg sync.WaitGroup
		for tt := 0; tt < threads; tt++ {
			wg.Add(1)
			go func(tt int) {
				defer wg.Done()
				h := q.Register()
				rng := xrand.New(uint64(r)*65537 + uint64(tt)*7919)
				base := int64(tt+1) << 32
				for i := 0; i < opsPer; i++ {
					switch rng.Intn(4) {
					case 0, 1:
						v := base + int64(i)
						inv := rec.Begin()
						ok := h.Enqueue(v)
						rec.RecordEnqueue(tt, v, ok, inv)
					case 2:
						inv := rec.Begin()
						v, ok := h.Dequeue()
						rec.RecordDequeue(tt, v, ok, inv)
					default:
						inv := rec.Begin()
						v, ok := h.TryDequeue()
						rec.RecordDequeue(tt, v, ok, inv)
					}
					// Churn the slot: the next operation runs on whatever
					// id the free list hands back.
					h.Close()
					h = q.Register()
				}
				h.Close()
			}(tt)
		}
		wg.Wait()
		if h := rec.History(); !lincheck.CheckQueue(h, lcCap) {
			for _, op := range h {
				t.Logf("%s", op)
			}
			t.Fatalf("round %d: recycled-slot history not linearizable", r)
		}
	}
}

// runQHistoryImplicit drives `threads` goroutines through the
// handle-free API only - no Register anywhere - so every operation
// borrows a cached per-P session from the implicit layer.
func runQHistoryImplicit(q *queue.Queue[int64], threads, opsPer int, seed uint64) []lincheck.QOp {
	rec := lincheck.NewQRecorder(threads)
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			rng := xrand.New(seed + uint64(t)*7919)
			base := int64(t+1) << 32
			for i := 0; i < opsPer; i++ {
				switch rng.Intn(4) {
				case 0, 1:
					v := base + int64(i)
					inv := rec.Begin()
					ok := q.Enqueue(v)
					rec.RecordEnqueue(t, v, ok, inv)
				case 2:
					inv := rec.Begin()
					v, ok := q.Dequeue()
					rec.RecordDequeue(t, v, ok, inv)
				default:
					inv := rec.Begin()
					v, ok := q.TryDequeue()
					rec.RecordDequeue(t, v, ok, inv)
				}
			}
		}(t)
	}
	wg.Wait()
	return rec.History()
}

// TestQueueLinearizabilityImplicitOnly checks histories driven
// exclusively through the implicit API, across the knobs the per-P
// session cache interacts with, and with a tight MaxThreads forcing
// slot scavenging into the histories.
func TestQueueLinearizabilityImplicitOnly(t *testing.T) {
	variants := map[string][]queue.Option{
		"Default":    nil,
		"Adaptive":   {queue.WithAdaptive(true), queue.WithAnnounceEvery(1)},
		"NoAffinity": {queue.WithImplicitSessions(false)},
		"TightCap":   {queue.WithMaxThreads(4)},
	}
	for name, opt := range variants {
		name, opt := name, opt
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for r := 0; r < 20; r++ {
				q := queue.New[int64](append(opt, queue.WithCapacity(lcCap))...)
				h := runQHistoryImplicit(q, 4, 4, uint64(r)*92821+7)
				if !lincheck.CheckQueue(h, lcCap) {
					for _, op := range h {
						t.Logf("%s", op)
					}
					t.Fatalf("round %d: implicit-only history not linearizable", r)
				}
			}
		})
	}
}
