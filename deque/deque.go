// Package deque applies SEC's sharded elimination and combining to a
// double-ended queue - the extension the paper repeatedly names as the
// natural next target for its techniques ("the elimination and
// combining techniques ... can be applied in other contexts, such as
// designing efficient concurrent deques").
//
// Each end of the deque runs the SEC batch protocol independently, as
// an aggregator of the shared internal/agg engine: operations on one
// end announce themselves with fetch&increment on the end's active
// batch, the first announcer freezes the batch after a batch-growing
// backoff, opposite operations with equal sequence numbers eliminate
// (a PushLeft and a PopLeft cancel exactly like a push/pop pair on a
// stack, and symmetrically on the right), and a single combiner per
// batch applies the survivors to the shared deque. The appliers run
// under a central mutex rather than a CAS-able top pointer - a deque
// has no single word that one CAS can move, so combining (batching
// many operations per lock acquisition) is exactly what makes the lock
// cheap.
//
// Frozen batches - slot arrays and result tables - are always recycled,
// so the freeze path allocates nothing in steady state. The engine's
// lifecycle (announce, freeze, combine, reclaim) and its optional
// adaptivity - the solo fast path (WithAdaptive, a TryLock apply when
// an end's recent batch degree is ~1) and the adaptive freezer backoff
// (WithAdaptiveSpin) - are documented in internal/agg and DESIGN.md
// §8-§10; the deque honours the same shared options as the other
// structures (see README.md for the matrix).
package deque

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
var ErrExhausted = errors.New("deque: more than MaxThreads handles live")

// Side selects a deque end.
type Side int

// The two ends; each is one aggregator of the engine.
const (
	Left Side = iota
	Right
)

// popResult is one pop's response, published by the combiner.
type popResult[T any] struct {
	v  T
	ok bool
}

// dqBatch and dqEngine name this package's engine instantiation: the
// announced record is the pushed value itself, and the per-batch
// payload is the pop combiner's result table.
type (
	dqBatch[T any]  = agg.Batch[T, []popResult[T]]
	dqEngine[T any] = agg.Engine[T, []popResult[T]]
)

// Deque is a blocking linearizable double-ended queue. Register hands
// out per-goroutine handles (the fast path for worker loops); the
// direct PushLeft/PushRight/PopLeft/PopRight methods transparently
// reuse the calling P's cached handle, so handle-free callers need no
// session management at all.
type Deque[T any] struct {
	mu    sync.Mutex
	items ring[T]

	eng   *dqEngine[T]
	cache *isession.Sessions[*Handle[T]]
}

// Option configures New; it is the shared option type of the whole
// repository, so the stack package's WithMaxThreads and WithFreezerSpin
// work here unchanged.
type Option = config.Option

// WithMaxThreads bounds concurrently live handles (default 256). Close
// recycles handle slots, so this is a concurrency bound, not a lifetime
// bound.
func WithMaxThreads(n int) Option { return config.WithMaxThreads(n) }

// WithFreezerSpin sets the freezer's batch-growing pre-freeze backoff
// in spin iterations (default 128; 0 disables). The backoff belongs to
// the shared internal/agg engine, not to a deque-private freezer: the
// first announcer of either operation type on an end wins the engine's
// freezer race, spins so more operations can announce into the batch,
// and only then snapshots the counters and installs the end's next
// batch. Larger values grow batches - and with them the per-end
// elimination and combining degrees - at the price of latency on that
// end. Under WithAdaptiveSpin this value is the ceiling the per-end
// controller grows toward, not the delay every freeze pays.
func WithFreezerSpin(s int) Option { return config.WithFreezerSpin(s) }

// WithAdaptiveSpin toggles the adaptive freezer backoff: each end
// tunes its own pre-freeze spin on its batch-degree EWMA, growing
// toward WithFreezerSpin while its batches freeze well-filled and
// decaying toward zero while they freeze near-empty, so a
// lightly-used end stops delaying its (mostly singleton) freezes.
func WithAdaptiveSpin(on bool) Option { return config.WithAdaptiveSpin(on) }

// WithMetrics enables the per-end batch occupancy and elimination-rate
// counters, retrievable via Metrics.
func WithMetrics() Option { return config.WithMetrics() }

// WithAdaptive toggles the solo fast path: when an end's recent batch
// degree is ~1, an operation first tries the central lock with one
// TryLock instead of paying the batch protocol, falling back to the
// full protocol when the lock is contended.
func WithAdaptive(on bool) Option { return config.WithAdaptive(on) }

// WithImplicitSessions toggles the per-P affinity tier behind the
// handle-free PushLeft/PushRight/PopLeft/PopRight methods (default
// on); see the stack package's option of the same name.
func WithImplicitSessions(on bool) Option { return config.WithImplicitSessions(on) }

// WithAnnounceEvery sets the cached implicit sessions' amortized
// hazard-announcement cadence (default 8; 1 restores the eager per-op
// clear); see the stack package's option of the same name.
func WithAnnounceEvery(k int) Option { return config.WithAnnounceEvery(k) }

// New returns an empty deque.
func New[T any](opts ...Option) *Deque[T] {
	c := config.Resolve(opts)
	d := &Deque[T]{}
	var m *metrics.SEC
	if c.CollectMetrics {
		m = metrics.NewSEC(2)
	}
	d.eng = agg.New(agg.Spec[T, []popResult[T]]{
		// One aggregator per end. Ends are chosen per operation, not per
		// session, so the engine is unpartitioned: any handle may
		// announce on either aggregator, and batches are sized for every
		// live handle.
		Aggregators:  2,
		MaxThreads:   c.MaxThreads,
		FreezerSpin:  c.FreezerSpin,
		AdaptiveSpin: c.AdaptiveSpin,
		Partitioned:  false,
		Adaptive:     c.Adaptive,
		Eliminate:    agg.PairElim,
		MakeData:     func(n int) []popResult[T] { return make([]popResult[T], n) },
		ResetData:    resetResults[T],
		ApplyPush:    d.applyPush,
		ApplyPop:     d.applyPop,
		TrySoloPush:  d.trySoloPush,
		TrySoloPop:   d.trySoloPop,
		Metrics:      m,
	})
	// Cached implicit handles clear their hazard once per
	// AnnounceEvery ops (amortized announcement); explicit handles keep
	// the engine's eager per-op clear.
	d.cache = isession.New(c.ImplicitAffinity, func() (*Handle[T], error) {
		h, err := d.TryRegister()
		if err != nil {
			return nil, err
		}
		h.sess.SetDoneCadence(c.AnnounceEvery)
		return h, nil
	}, func(h *Handle[T]) { h.Close() })
	return d
}

// resetResults zeroes a recycled batch's result table so a reused
// batch cannot retain references to a previous incarnation's popped
// values.
func resetResults[T any](p *[]popResult[T]) {
	clear(*p)
}

// Metrics returns the per-end degree collector, or nil if WithMetrics
// was not given. Shard 0 tallies the left end, shard 1 the right.
func (d *Deque[T]) Metrics() *metrics.SEC { return d.eng.Metrics() }

// Handle is a per-goroutine session. Handles must not be shared between
// goroutines, and should be Closed when their goroutine is done so the
// handle slot recycles.
type Handle[T any] struct {
	d    *Deque[T]
	sess *agg.Session[T, []popResult[T]] // nil once closed
}

// Register returns a new handle. Slots released by Close are recycled,
// so registration panics only when MaxThreads handles are live at the
// same time.
func (d *Deque[T]) Register() *Handle[T] {
	h, err := d.TryRegister()
	if err != nil {
		panic(fmt.Sprintf("deque: more than MaxThreads=%d handles live", d.eng.MaxThreads()))
	}
	return h
}

// TryRegister is Register with ErrExhausted in place of the exhaustion
// panic - the same contract the stack, pool and funnel packages offer.
func (d *Deque[T]) TryRegister() (*Handle[T], error) {
	sess, err := d.eng.Register()
	if err != nil {
		return nil, ErrExhausted
	}
	return &Handle[T]{d: d, sess: sess}, nil
}

// PushLeft adds v at the left end through a cached per-P handle.
func (d *Deque[T]) PushLeft(v T) {
	e := d.cache.Acquire()
	e.H.PushLeft(v)
	d.cache.Release(e)
}

// PushRight adds v at the right end through a cached per-P handle.
func (d *Deque[T]) PushRight(v T) {
	e := d.cache.Acquire()
	e.H.PushRight(v)
	d.cache.Release(e)
}

// PopLeft removes and returns the leftmost element through a cached
// per-P handle.
func (d *Deque[T]) PopLeft() (T, bool) {
	e := d.cache.Acquire()
	v, ok := e.H.PopLeft()
	d.cache.Release(e)
	return v, ok
}

// PopRight removes and returns the rightmost element through a cached
// per-P handle.
func (d *Deque[T]) PopRight() (T, bool) {
	e := d.cache.Acquire()
	v, ok := e.H.PopRight()
	d.cache.Release(e)
	return v, ok
}

// Close releases the handle's slot for reuse by a future Register.
// Close is idempotent; any other use of a closed handle is a bug.
func (h *Handle[T]) Close() {
	if h.sess == nil {
		return
	}
	h.d.eng.Release(h.sess)
	h.sess = nil
}

// PushLeft adds v at the left end.
func (h *Handle[T]) PushLeft(v T) { h.push(Left, v) }

// PushRight adds v at the right end.
func (h *Handle[T]) PushRight(v T) { h.push(Right, v) }

// PopLeft removes and returns the leftmost element; ok is false if the
// deque did not hold enough elements for this operation's batch slice.
func (h *Handle[T]) PopLeft() (T, bool) { return h.pop(Left) }

// PopRight removes and returns the rightmost element.
func (h *Handle[T]) PopRight() (T, bool) { return h.pop(Right) }

func (h *Handle[T]) push(side Side, v T) {
	h.d.eng.Push(h.sess, int(side), &v)
	// Eliminated pushes return right away: the paired pop reads the
	// value from the batch's announcement slots. Survivors return once
	// the end's combiner applied them under the lock.
	h.sess.Done()
}

// trySoloPush is the solo fast path's push applier: apply the scratch
// batch's single value under the central lock if it is free right now,
// report contention otherwise.
func (d *Deque[T]) trySoloPush(end int, b *dqBatch[T]) bool {
	if !d.mu.TryLock() {
		return false
	}
	p := b.Slot(0)
	if Side(end) == Left {
		d.items.pushFront(*p)
	} else {
		d.items.pushBack(*p)
	}
	d.mu.Unlock()
	return true
}

// applyPush is the push-side combiner body: apply the surviving pushes
// of one end's frozen batch to the sequential deque under the lock.
func (d *Deque[T]) applyPush(end int, b *dqBatch[T], seq, pushAtF int64) {
	d.mu.Lock()
	for i := seq; i < pushAtF; i++ {
		p := b.WaitSlot(i)
		if Side(end) == Left {
			d.items.pushFront(*p)
		} else {
			d.items.pushBack(*p)
		}
	}
	d.mu.Unlock()
}

func (h *Handle[T]) pop(side Side) (v T, ok bool) {
	t := h.d.eng.Pop(h.sess, int(side))
	if t.Elim != nil { // eliminated against the push with the same number
		v = *t.Elim
		h.sess.Done()
		return v, true
	}
	r := t.B.Data[t.Off]
	h.sess.Done() // finished with the batch's result table
	return r.v, r.ok
}

// trySoloPop is the solo fast path's pop applier: serve one pop under
// the central lock if it is free right now, publishing the result
// through the scratch batch's table as applyPop would.
func (d *Deque[T]) trySoloPop(end int, b *dqBatch[T]) bool {
	if !d.mu.TryLock() {
		return false
	}
	if Side(end) == Left {
		b.Data[0].v, b.Data[0].ok = d.items.popFront()
	} else {
		b.Data[0].v, b.Data[0].ok = d.items.popBack()
	}
	d.mu.Unlock()
	return true
}

// applyPop is the pop-side combiner body: serve the surviving pops of
// one end's frozen batch from the sequential deque under the lock,
// publishing their responses through the batch's result table.
func (d *Deque[T]) applyPop(end int, b *dqBatch[T], e, popAtF int64) {
	k := popAtF - e
	d.mu.Lock()
	for i := int64(0); i < k; i++ {
		if Side(end) == Left {
			b.Data[i].v, b.Data[i].ok = d.items.popFront()
		} else {
			b.Data[i].v, b.Data[i].ok = d.items.popBack()
		}
	}
	d.mu.Unlock()
}

// Len counts elements; a racy diagnostic for quiescent states.
func (d *Deque[T]) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.items.len()
}

// ring is a growable circular buffer backing the sequential deque.
type ring[T any] struct {
	buf  []T
	head int // index of the leftmost element
	n    int
}

func (r *ring[T]) len() int { return r.n }

func (r *ring[T]) grow() {
	if r.n < len(r.buf) {
		return
	}
	next := make([]T, max(4, 2*len(r.buf)))
	for i := 0; i < r.n; i++ {
		next[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	r.buf, r.head = next, 0
}

func (r *ring[T]) pushFront(v T) {
	r.grow()
	r.head = (r.head - 1 + len(r.buf)) % len(r.buf)
	r.buf[r.head] = v
	r.n++
}

func (r *ring[T]) pushBack(v T) {
	r.grow()
	r.buf[(r.head+r.n)%len(r.buf)] = v
	r.n++
}

func (r *ring[T]) popFront() (v T, ok bool) {
	if r.n == 0 {
		return v, false
	}
	var zero T
	v = r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return v, true
}

func (r *ring[T]) popBack() (v T, ok bool) {
	if r.n == 0 {
		return v, false
	}
	var zero T
	i := (r.head + r.n - 1) % len(r.buf)
	v = r.buf[i]
	r.buf[i] = zero
	r.n--
	return v, true
}
