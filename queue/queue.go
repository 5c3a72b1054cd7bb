// Package queue applies SEC's sharded batching to a bounded MPMC FIFO
// queue with a channel-shaped API - the repository's first *ordered*
// structure, and the head-to-head against Go's native buffered
// channels (see BenchmarkQueueVsChannel and `secbench -fig queue`).
//
// Sessions partition across K aggregators exactly as on the SEC stack:
// an enqueue or dequeue announces itself with fetch&increment on its
// home aggregator's active batch, the first announcer freezes the
// batch after the batch-growing backoff, and a single combiner per
// frozen batch applies the whole batch to one shared bounded ring
// under a central lock - splicing the batch's enqueues in announcement
// order and serving its dequeues from the front in announcement order.
// Combining is what pays for the lock: one acquisition moves a whole
// batch, so the lock's cost amortizes with contention instead of
// compounding.
//
// Unlike the stack and deque, the queue never eliminates: a concurrent
// push/pop pair may cancel on a LIFO structure because the pair can
// linearize back-to-back at the top, but a FIFO dequeue must observe
// the *oldest* element, so an enqueue/dequeue pair can only cancel
// against an empty queue. The engine runs with agg.NoElim and every
// announced operation survives to its combiner.
//
// Capacity is exact: WithCapacity(n) admits at most n elements, an
// enqueue into a full queue returns false, and a dequeue of an empty
// queue returns (zero, false) - the non-blocking halves of a buffered
// channel's select/default contract. Frozen batches - slot arrays and
// both response tables - are always recycled, so the freeze path
// allocates nothing in steady state. The engine's lifecycle and its
// optional adaptivity (WithAdaptive solo fast path, WithAdaptiveSpin)
// are documented in internal/agg and DESIGN.md §8-§10 and §15.
package queue

import (
	"errors"
	"fmt"
	"sync"

	"secstack/internal/agg"
	"secstack/internal/config"
	"secstack/internal/isession"
	"secstack/internal/metrics"
)

// ErrExhausted is returned by TryRegister when MaxThreads handles are
// live at the same time - the backpressure signal for callers that
// prefer refusing a session over crashing.
var ErrExhausted = errors.New("queue: more than MaxThreads handles live")

// deqResult is one dequeue's response, published by the combiner.
type deqResult[T any] struct {
	v  T
	ok bool
}

// results is the per-batch payload: the combiners' response tables.
// enq[i] reports whether the enqueue with sequence number i was
// admitted (false: the ring was full when its turn came); deq[i] is
// the i-th dequeue's element, or ok=false when the ring ran empty.
type results[T any] struct {
	enq []bool
	deq []deqResult[T]
}

// qBatch and qEngine name this package's engine instantiation: the
// announced record is the enqueued value itself, and the per-batch
// payload carries both sides' response tables.
type (
	qBatch[T any]  = agg.Batch[T, results[T]]
	qEngine[T any] = agg.Engine[T, results[T]]
)

// Queue is a bounded linearizable MPMC FIFO queue. Register hands out
// per-goroutine handles (the fast path for worker loops); the direct
// Enqueue/Dequeue/TryEnqueue/TryDequeue methods transparently reuse
// the calling P's cached handle, so handle-free callers need no
// session management at all.
type Queue[T any] struct {
	mu    sync.Mutex
	items qring[T]

	eng   *qEngine[T]
	cache *isession.Sessions[*Handle[T]]
}

// Option configures New; it is the shared option type of the whole
// repository, so the stack package's WithMaxThreads and WithFreezerSpin
// work here unchanged.
type Option = config.Option

// WithCapacity bounds the queue's element count (default 1024, minimum
// 1). The bound is exact: TryEnqueue and Enqueue return false rather
// than admit element capacity+1, and a dequeue that makes room is
// immediately visible to the next enqueue in the linearization order.
func WithCapacity(n int) Option { return config.WithCapacity(n) }

// WithAggregators sets K, the number of SEC shards sessions partition
// across (default 2). All shards' combiners apply to the one shared
// FIFO ring; more shards means more concurrent announcement points,
// not more queues.
func WithAggregators(k int) Option { return config.WithAggregators(k) }

// WithMaxThreads bounds concurrently live handles (default 256). Close
// recycles handle slots, so this is a concurrency bound, not a lifetime
// bound.
func WithMaxThreads(n int) Option { return config.WithMaxThreads(n) }

// WithFreezerSpin sets the freezer's batch-growing pre-freeze backoff
// in spin iterations (default 128; 0 disables). Larger values grow
// batches - and with them the ops moved per lock acquisition - at the
// price of per-operation latency. Under WithAdaptiveSpin this value is
// the ceiling the per-shard controller grows toward, not the delay
// every freeze pays.
func WithFreezerSpin(s int) Option { return config.WithFreezerSpin(s) }

// WithAdaptiveSpin toggles the adaptive freezer backoff: each shard
// tunes its own pre-freeze spin on its batch-degree EWMA, growing
// toward WithFreezerSpin while its batches freeze well-filled and
// decaying toward zero while they freeze near-empty.
func WithAdaptiveSpin(on bool) Option { return config.WithAdaptiveSpin(on) }

// WithMetrics enables the per-shard batch occupancy and combining
// degree counters, retrievable via Metrics.
func WithMetrics() Option { return config.WithMetrics() }

// WithAdaptive toggles the solo fast path: when a shard's recent batch
// degree is ~1, an operation first tries the central lock with one
// TryLock instead of paying the batch protocol, falling back to the
// full protocol when the lock is contended.
func WithAdaptive(on bool) Option { return config.WithAdaptive(on) }

// WithImplicitSessions toggles the per-P affinity tier behind the
// handle-free Enqueue/Dequeue/TryEnqueue/TryDequeue methods (default
// on); see the stack package's option of the same name.
func WithImplicitSessions(on bool) Option { return config.WithImplicitSessions(on) }

// WithAnnounceEvery sets the cached implicit sessions' amortized
// hazard-announcement cadence (default 8; 1 restores the eager per-op
// clear); see the stack package's option of the same name.
func WithAnnounceEvery(k int) Option { return config.WithAnnounceEvery(k) }

// New returns an empty queue with capacity WithCapacity (default 1024).
func New[T any](opts ...Option) *Queue[T] {
	c := config.Resolve(opts)
	q := &Queue[T]{items: newQRing[T](c.Capacity)}
	var m *metrics.SEC
	if c.CollectMetrics {
		m = metrics.NewSEC(c.Aggregators)
	}
	q.eng = agg.New(agg.Spec[T, results[T]]{
		Aggregators:  c.Aggregators,
		MaxThreads:   c.MaxThreads,
		FreezerSpin:  c.FreezerSpin,
		AdaptiveSpin: c.AdaptiveSpin,
		Partitioned:  true,
		Adaptive:     c.Adaptive,
		// FIFO semantics forbid in-batch elimination: a dequeue must
		// observe the oldest element, not its batch-mate's enqueue, so
		// a pair may only cancel against an *empty* queue - a state the
		// combiner cannot assume. Every announcement survives.
		Eliminate: agg.NoElim,
		MakeData: func(n int) results[T] {
			return results[T]{enq: make([]bool, n), deq: make([]deqResult[T], n)}
		},
		ResetData:   resetResults[T],
		ApplyPush:   q.applyEnqueue,
		ApplyPop:    q.applyDequeue,
		TrySoloPush: q.trySoloEnqueue,
		TrySoloPop:  q.trySoloDequeue,
		Metrics:     m,
	})
	// Cached implicit handles clear their hazard once per
	// AnnounceEvery ops (amortized announcement); explicit handles keep
	// the engine's eager per-op clear.
	q.cache = isession.New(c.ImplicitAffinity, func() (*Handle[T], error) {
		h, err := q.TryRegister()
		if err != nil {
			return nil, err
		}
		h.sess.SetDoneCadence(c.AnnounceEvery)
		return h, nil
	}, func(h *Handle[T]) { h.Close() })
	return q
}

// resetResults zeroes a recycled batch's response tables so a reused
// batch cannot retain references to a previous incarnation's dequeued
// values or leak stale admission bits.
func resetResults[T any](p *results[T]) {
	clear(p.enq)
	clear(p.deq)
}

// Metrics returns the per-shard degree collector, or nil if
// WithMetrics was not given.
func (q *Queue[T]) Metrics() *metrics.SEC { return q.eng.Metrics() }

// Handle is a per-goroutine session. Handles must not be shared between
// goroutines, and should be Closed when their goroutine is done so the
// handle slot recycles.
type Handle[T any] struct {
	q    *Queue[T]
	sess *agg.Session[T, results[T]] // nil once closed

	// scratch is the announcement slot for this handle's enqueues: the
	// engine stores &scratch into the batch, and the combiner (or solo
	// applier) copies it out before publishing the batch's applied
	// flag, which Enqueue waits on before returning - so reusing the
	// field on the next call never races with a reader. Announcing a
	// handle field instead of a stack local keeps the value from
	// escaping to the heap (0 allocs/op).
	scratch T
}

// Register returns a new handle. Slots released by Close are recycled,
// so registration panics only when MaxThreads handles are live at the
// same time.
func (q *Queue[T]) Register() *Handle[T] {
	h, err := q.TryRegister()
	if err != nil {
		panic(fmt.Sprintf("queue: more than MaxThreads=%d handles live", q.eng.MaxThreads()))
	}
	return h
}

// TryRegister is Register with ErrExhausted in place of the exhaustion
// panic - the same contract the stack, deque, pool and funnel packages
// offer.
func (q *Queue[T]) TryRegister() (*Handle[T], error) {
	sess, err := q.eng.Register()
	if err != nil {
		return nil, ErrExhausted
	}
	return &Handle[T]{q: q, sess: sess}, nil
}

// Enqueue adds v at the tail through a cached per-P handle, reporting
// false if the queue was full.
func (q *Queue[T]) Enqueue(v T) bool {
	e := q.cache.Acquire()
	ok := e.H.Enqueue(v)
	q.cache.Release(e)
	return ok
}

// Dequeue removes and returns the head element through a cached per-P
// handle; ok is false if the queue was empty.
func (q *Queue[T]) Dequeue() (T, bool) {
	e := q.cache.Acquire()
	v, ok := e.H.Dequeue()
	q.cache.Release(e)
	return v, ok
}

// TryEnqueue is Enqueue through a cached per-P handle, preferring the
// one-CAS solo path; false means the queue was full.
func (q *Queue[T]) TryEnqueue(v T) bool {
	e := q.cache.Acquire()
	ok := e.H.TryEnqueue(v)
	q.cache.Release(e)
	return ok
}

// TryDequeue is Dequeue through a cached per-P handle, preferring the
// one-CAS solo path; ok=false means the queue was empty.
func (q *Queue[T]) TryDequeue() (T, bool) {
	e := q.cache.Acquire()
	v, ok := e.H.TryDequeue()
	q.cache.Release(e)
	return v, ok
}

// Close releases the handle's slot for reuse by a future Register.
// Close is idempotent; any other use of a closed handle is a bug.
func (h *Handle[T]) Close() {
	if h.sess == nil {
		return
	}
	h.q.eng.Release(h.sess)
	h.sess = nil
}

// Enqueue adds v at the tail, reporting false if the queue was full at
// the operation's linearization point. The call returns once its
// batch's combiner (or the solo fast path) has applied it.
func (h *Handle[T]) Enqueue(v T) bool {
	h.scratch = v
	eng := h.q.eng
	t := eng.Push(h.sess, eng.AggOf(h.sess.ID()), &h.scratch)
	ok := t.B.Data.enq[t.Seq]
	h.sess.Done() // finished with the batch's response table
	return ok
}

// Dequeue removes and returns the head element; ok is false if the
// queue was empty when the combiner served this operation.
func (h *Handle[T]) Dequeue() (v T, ok bool) {
	eng := h.q.eng
	t := eng.Pop(h.sess, eng.AggOf(h.sess.ID()))
	r := t.B.Data.deq[t.Off]
	h.sess.Done() // finished with the batch's response table
	return r.v, r.ok
}

// TryEnqueue adds v at the tail with one solo CAS when the central
// lock is free - bypassing the batch protocol entirely - and falls
// back to the full Enqueue when the lock is contended, so false always
// means "full", never "busy" (the non-blocking half of a channel
// send's select/default contract).
func (h *Handle[T]) TryEnqueue(v T) bool {
	h.scratch = v
	eng := h.q.eng
	if t, ok := eng.TryPush(h.sess, eng.AggOf(h.sess.ID()), &h.scratch); ok {
		return t.B.Data.enq[0] // solo apply: no announcement, no Done
	}
	return h.Enqueue(v)
}

// TryDequeue removes and returns the head element with one solo CAS
// when the central lock is free, falling back to the full Dequeue when
// the lock is contended, so ok=false always means "empty", never
// "busy" (the non-blocking half of a channel receive's select/default
// contract).
func (h *Handle[T]) TryDequeue() (T, bool) {
	eng := h.q.eng
	if t, ok := eng.TryPop(h.sess, eng.AggOf(h.sess.ID())); ok {
		r := t.B.Data.deq[0] // solo apply: no announcement, no Done
		return r.v, r.ok
	}
	return h.Dequeue()
}

// trySoloEnqueue is the solo fast path's enqueue applier: apply the
// scratch batch's single value under the central lock if it is free
// right now, report contention otherwise.
func (q *Queue[T]) trySoloEnqueue(_ int, b *qBatch[T]) bool {
	if !q.mu.TryLock() {
		return false
	}
	b.Data.enq[0] = q.items.enqueue(*b.Slot(0))
	q.mu.Unlock()
	return true
}

// applyEnqueue is the enqueue-side combiner body: splice one shard's
// frozen batch into the shared ring in announcement order, recording
// each operation's admission (full queues reject) in the batch's
// response table. With elimination off, seq is always 0 and the loop
// covers the whole batch.
func (q *Queue[T]) applyEnqueue(_ int, b *qBatch[T], seq, pushAtF int64) {
	q.mu.Lock()
	for i := seq; i < pushAtF; i++ {
		b.Data.enq[i] = q.items.enqueue(*b.WaitSlot(i))
	}
	q.mu.Unlock()
}

// trySoloDequeue is the solo fast path's dequeue applier: serve one
// dequeue under the central lock if it is free right now, publishing
// the result through the scratch batch's table as applyDequeue would.
func (q *Queue[T]) trySoloDequeue(_ int, b *qBatch[T]) bool {
	if !q.mu.TryLock() {
		return false
	}
	b.Data.deq[0].v, b.Data.deq[0].ok = q.items.dequeue()
	q.mu.Unlock()
	return true
}

// applyDequeue is the dequeue-side combiner body: serve one shard's
// frozen batch from the ring's head in announcement order, publishing
// each element (or ok=false once the ring runs empty) through the
// batch's response table. With elimination off, e is always 0.
func (q *Queue[T]) applyDequeue(_ int, b *qBatch[T], e, popAtF int64) {
	k := popAtF - e
	q.mu.Lock()
	for i := int64(0); i < k; i++ {
		b.Data.deq[i].v, b.Data.deq[i].ok = q.items.dequeue()
	}
	q.mu.Unlock()
}

// Len counts elements; a racy diagnostic for quiescent states.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.items.n
}

// Cap returns the queue's fixed capacity.
func (q *Queue[T]) Cap() int { return q.items.capacity }

// qring is the sequential bounded ring the combiners apply batches to:
// fixed capacity, segmented backing storage. Segments allocate lazily
// on first touch (under the queue lock) and are retained for the
// queue's lifetime, so a warmed queue's enqueue/dequeue paths allocate
// nothing while unused capacity costs no memory up front.
type qring[T any] struct {
	segs     [][]T
	capacity int
	head     int // position of the front element, in [0, capacity)
	n        int
}

// Segment geometry: positions map to (pos>>segBits, pos&segMask).
const (
	segBits = 6
	segSize = 1 << segBits
	segMask = segSize - 1
)

func newQRing[T any](capacity int) qring[T] {
	capacity = max(capacity, 1)
	return qring[T]{
		segs:     make([][]T, (capacity+segSize-1)/segSize),
		capacity: capacity,
	}
}

// slot returns the cell for an absolute position, allocating its
// segment on first touch. pos < capacity <= len(segs)*segSize.
func (r *qring[T]) slot(pos int) *T {
	s := pos >> segBits
	if r.segs[s] == nil {
		r.segs[s] = make([]T, segSize)
	}
	return &r.segs[s][pos&segMask]
}

// enqueue appends v at the tail; false means full (exact capacity).
func (r *qring[T]) enqueue(v T) bool {
	if r.n == r.capacity {
		return false
	}
	tail := r.head + r.n
	if tail >= r.capacity {
		tail -= r.capacity
	}
	*r.slot(tail) = v
	r.n++
	return true
}

// dequeue removes the front element, zeroing its cell so the ring does
// not pin dequeued values against the GC.
func (r *qring[T]) dequeue() (v T, ok bool) {
	if r.n == 0 {
		return v, false
	}
	p := r.slot(r.head)
	v = *p
	var zero T
	*p = zero
	r.head++
	if r.head == r.capacity {
		r.head = 0
	}
	r.n--
	return v, true
}
