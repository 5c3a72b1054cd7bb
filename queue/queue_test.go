package queue_test

import (
	"runtime"
	"sync"
	"testing"

	"secstack/internal/xrand"
	"secstack/queue"
)

// TestQueueFIFOSequential checks single-threaded FIFO order, exact
// capacity accounting, and the empty/full result shapes through both
// the full-protocol and Try* forms.
func TestQueueFIFOSequential(t *testing.T) {
	q := queue.New[int64](queue.WithCapacity(4))
	if q.Cap() != 4 {
		t.Fatalf("Cap() = %d, want 4", q.Cap())
	}
	h := q.Register()
	defer h.Close()

	if v, ok := h.Dequeue(); ok {
		t.Fatalf("Dequeue on empty returned (%d, true)", v)
	}
	if v, ok := h.TryDequeue(); ok {
		t.Fatalf("TryDequeue on empty returned (%d, true)", v)
	}
	for i := int64(1); i <= 4; i++ {
		if !h.Enqueue(i) {
			t.Fatalf("Enqueue(%d) rejected below capacity", i)
		}
	}
	if h.Enqueue(5) {
		t.Fatal("Enqueue admitted element capacity+1")
	}
	if h.TryEnqueue(5) {
		t.Fatal("TryEnqueue admitted element capacity+1")
	}
	if got := q.Len(); got != 4 {
		t.Fatalf("Len() = %d, want 4", got)
	}
	for i := int64(1); i <= 4; i++ {
		v, ok := h.Dequeue()
		if !ok || v != i {
			t.Fatalf("Dequeue = (%d, %v), want (%d, true)", v, ok, i)
		}
	}
	if _, ok := h.Dequeue(); ok {
		t.Fatal("Dequeue on drained queue succeeded")
	}

	// Wraparound: interleave so head/tail lap the ring repeatedly.
	for lap := int64(0); lap < 300; lap++ {
		if !h.TryEnqueue(lap) {
			t.Fatalf("lap %d: TryEnqueue rejected on non-full queue", lap)
		}
		v, ok := h.TryDequeue()
		if !ok || v != lap {
			t.Fatalf("lap %d: TryDequeue = (%d, %v)", lap, v, ok)
		}
	}
	if got := q.Len(); got != 0 {
		t.Fatalf("Len() = %d after balanced laps", got)
	}
}

// TestQueueHandleFree exercises the implicit (handle-free) surface.
func TestQueueHandleFree(t *testing.T) {
	q := queue.New[string](queue.WithCapacity(2))
	if !q.Enqueue("a") || !q.TryEnqueue("b") {
		t.Fatal("enqueues below capacity rejected")
	}
	if q.TryEnqueue("c") {
		t.Fatal("TryEnqueue admitted element capacity+1")
	}
	if v, ok := q.Dequeue(); !ok || v != "a" {
		t.Fatalf("Dequeue = (%q, %v), want (a, true)", v, ok)
	}
	if v, ok := q.TryDequeue(); !ok || v != "b" {
		t.Fatalf("TryDequeue = (%q, %v), want (b, true)", v, ok)
	}
	if v, ok := q.TryDequeue(); ok {
		t.Fatalf("TryDequeue on empty returned (%q, true)", v)
	}
}

// TestQueueTryRegisterExhaustion checks the MaxThreads backpressure
// contract: TryRegister refuses with ErrExhausted at the cap, and a
// Close recycles the slot.
func TestQueueTryRegisterExhaustion(t *testing.T) {
	q := queue.New[int64](queue.WithMaxThreads(2))
	h1 := q.Register()
	h2 := q.Register()
	if _, err := q.TryRegister(); err != queue.ErrExhausted {
		t.Fatalf("TryRegister at cap: err = %v, want ErrExhausted", err)
	}
	h1.Close()
	h1.Close() // idempotent
	h3, err := q.TryRegister()
	if err != nil {
		t.Fatalf("TryRegister after Close: %v", err)
	}
	h3.Close()
	h2.Close()
}

// TestQueueHandleChurnWaves registers and closes 4 x MaxThreads
// handles in waves - every wave's handles live concurrently up to the
// cap, do real work, and vacate their slots for the next wave - so id
// recycling crosses the engine's announcement, combining and hazard
// machinery many times over.
func TestQueueHandleChurnWaves(t *testing.T) {
	const maxThreads = 8
	q := queue.New[int64](
		queue.WithMaxThreads(maxThreads),
		queue.WithCapacity(64),
		queue.WithAdaptive(true),
	)
	var enq, deq int64
	var mu sync.Mutex
	for wave := 0; wave < 4; wave++ {
		var wg sync.WaitGroup
		for w := 0; w < maxThreads; w++ {
			wg.Add(1)
			go func(wave, w int) {
				defer wg.Done()
				h := q.Register()
				defer h.Close()
				base := int64(wave*maxThreads+w+1) << 32
				myEnq, myDeq := int64(0), int64(0)
				for i := int64(0); i < 100; i++ {
					if h.Enqueue(base + i) {
						myEnq++
					}
					if i%2 == 1 {
						if _, ok := h.Dequeue(); ok {
							myDeq++
						}
					}
				}
				mu.Lock()
				enq += myEnq
				deq += myDeq
				mu.Unlock()
			}(wave, w)
		}
		wg.Wait()
	}
	// Drain and check conservation across all four waves.
	h := q.Register()
	defer h.Close()
	for {
		if _, ok := h.Dequeue(); !ok {
			break
		}
		deq++
	}
	if enq != deq {
		t.Fatalf("churn waves: enqueued %d != dequeued %d", enq, deq)
	}
	if q.Len() != 0 {
		t.Fatalf("Len() = %d after full drain", q.Len())
	}
}

// TestQueueConservation is the value-exact multiset check with the
// Try* fallbacks engaged: producers push a known multiset through
// TryEnqueue (retrying full rejections), consumers drain through
// TryDequeue, and the dequeued multiset must equal the enqueued one.
// FIFO order is checked structurally: within one consumer's log, the
// sequence numbers it observes from any single producer must be
// strictly increasing - a concurrent dequeue may interleave producers,
// but it can never see one producer's values out of order.
func TestQueueConservation(t *testing.T) {
	const (
		producers = 4
		consumers = 4
		perProd   = 2000
	)
	q := queue.New[int64](
		queue.WithCapacity(128), // small: keeps full-queue rejections in play
		queue.WithAdaptive(true),
		queue.WithMetrics(),
	)
	var wg sync.WaitGroup
	logs := make([][]int64, consumers)
	var produced sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		produced.Add(1)
		go func(p int) {
			defer wg.Done()
			defer produced.Done()
			h := q.Register()
			defer h.Close()
			rng := xrand.New(uint64(p)*7919 + 1)
			for i := int64(0); i < perProd; i++ {
				v := int64(p+1)<<32 | i
				for !h.TryEnqueue(v) {
					if rng.Intn(4) == 0 {
						runtime.Gosched() // full: wait for consumers
					}
				}
			}
		}(p)
	}
	done := make(chan struct{})
	go func() { produced.Wait(); close(done) }()
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			h := q.Register()
			defer h.Close()
			for {
				if v, ok := h.TryDequeue(); ok {
					logs[c] = append(logs[c], v)
					continue
				}
				select {
				case <-done:
					// Producers finished; drain what remains and stop on
					// the first empty observation after that.
					if v, ok := h.TryDequeue(); ok {
						logs[c] = append(logs[c], v)
						continue
					}
					return
				default:
					runtime.Gosched()
				}
			}
		}(c)
	}
	wg.Wait()

	seen := make(map[int64]int, producers*perProd)
	for c, log := range logs {
		last := make(map[int64]int64, producers)
		for _, v := range log {
			seen[v]++
			p, i := v>>32, v&0xffffffff
			if prev, ok := last[p]; ok && i <= prev {
				t.Fatalf("consumer %d saw producer %d out of order: %d after %d", c, p, i, prev)
			}
			last[p] = i
		}
	}
	if len(seen) != producers*perProd {
		t.Fatalf("dequeued %d distinct values, want %d", len(seen), producers*perProd)
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("value %x dequeued %d times", v, n)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len() = %d after conservation drain", q.Len())
	}
}

// TestQueueZeroesDequeuedSlots checks that the ring does not pin
// dequeued pointers: after a pointerful queue drains, its cells must
// have been zeroed (verified indirectly - the value round-trips and
// the drained queue behaves as empty).
func TestQueueZeroesDequeuedSlots(t *testing.T) {
	type big struct{ p *int64 }
	q := queue.New[big](queue.WithCapacity(8))
	x := int64(7)
	if !q.Enqueue(big{&x}) {
		t.Fatal("enqueue rejected")
	}
	v, ok := q.Dequeue()
	if !ok || v.p != &x {
		t.Fatal("pointer did not round-trip")
	}
	if _, ok := q.Dequeue(); ok {
		t.Fatal("drained queue not empty")
	}
}
