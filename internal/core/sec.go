// Package core implements SEC (Sharded Elimination and Combining), the
// blocking linearizable concurrent stack of Singh, Metaxakis and
// Fatourou (PPoPP '26) - the primary contribution this repository
// reproduces.
//
// Threads are partitioned across K aggregators; the operations of each
// aggregator's threads are grouped into batches. Announcing an
// operation is one fetch&increment on the batch's push or pop counter;
// the returned sequence number doubles as the thread's slot in the
// batch's elimination array. The first push and first pop race on a
// test&set bit to become the batch's freezer, which - after a short
// batch-growing backoff - snapshots both counters and installs a fresh
// batch in the aggregator. Opposite operations with equal sequence
// numbers below the snapshot eliminate each other; the survivors (all
// of one type) are applied to the shared stack by a single per-batch
// combiner with one CAS: push combiners splice a pre-linked substack
// under the top pointer, pop combiners detach a chain of nodes and
// publish it for their batch's waiters to read return values from.
//
// The aggregator/batch lifecycle itself - announcement, the freezer
// race and its backoff, elimination bookkeeping, combiner election,
// batch sizing, session recycling, degree metrics - lives in
// internal/agg, shared with the deque and funnel packages. This
// package instantiates the engine with SEC's pairwise eliminator and
// the stack's appliers: the splice-substack CAS for surviving pushes
// and the detach-chain CAS for surviving pops.
//
// Deviations from the paper's pseudocode, both required for a connected
// substack (see DESIGN.md §7); both live in the appliers below:
//
//   - applyPush initializes the chain head at the combiner's own node
//     (the paper's top=⊥ would disconnect it from the nodes linked on
//     top of it);
//   - applyPop advances k = popCountAtFreeze-pushCountAtFreeze nodes
//     past the old top (the paper's loop advances k-1, which would leave
//     the last served pop's node on the stack).
package core

import (
	"fmt"
	"sync/atomic"

	"secstack/internal/agg"
	"secstack/internal/ebr"
	"secstack/internal/metrics"
)

// node is one cell of the shared stack (and of batch substacks).
type node[T any] struct {
	value T
	next  *node[T]
}

// popChain is the per-batch payload: the chain the pop combiner
// detached from the shared stack, which waiters index into by
// sequence-number offset, plus the surviving-pop countdown used by
// node recycling.
type popChain[T any] struct {
	// top is the detached chain's head; published to waiters by the
	// engine's applied handshake.
	top atomic.Pointer[node[T]]

	// pending (recycling only) counts surviving pops that have not yet
	// read their return value; the reader that decrements it to zero
	// retires the detached chain. Retiring per-node as values are read
	// would violate epoch reclamation's contract: the chain stays
	// reachable through top, and a sibling waiter whose critical
	// section began after an early retire could still traverse the
	// retired node.
	pending atomic.Int64
}

// secBatch and secEngine name this package's engine instantiation.
type (
	secBatch[T any]  = agg.Batch[node[T], popChain[T]]
	secEngine[T any] = agg.Engine[node[T], popChain[T]]
)

// Options configures a SEC stack. The zero value selects the defaults
// the paper's evaluation uses where applicable.
type Options struct {
	// Aggregators is K, the number of shards threads are partitioned
	// into. The paper's evaluation defaults to 2.
	Aggregators int

	// MaxThreads bounds Register calls; it also sizes elimination
	// arrays (ceil(MaxThreads/Aggregators) slots each). Default 256.
	MaxThreads int

	// FreezerSpin is the freezer's pre-freeze backoff in spin
	// iterations, which grows batches and with them the elimination and
	// combining degrees (§3.1 of the paper). Default 128; 0 disables.
	FreezerSpin int

	// AdaptiveSpin turns FreezerSpin into the ceiling of a
	// per-aggregator controller driven by the batch-degree EWMA: the
	// effective spin grows toward FreezerSpin while batches freeze
	// well-filled and decays toward zero while they freeze near-empty
	// (see DESIGN.md §9).
	AdaptiveSpin bool

	// NoElimination disables in-batch elimination, leaving freezing and
	// combining intact: both a push and a pop combiner may then apply
	// their sides of a batch. This is the ablation isolating how much
	// of SEC's win comes from elimination versus combining.
	NoElimination bool

	// Recycle routes node allocation through DEBRA-style epoch-based
	// reclamation (internal/ebr) instead of fresh allocation, the Go
	// analogue of the paper's DEBRA deployment (§4).
	Recycle bool

	// CollectMetrics enables the batching/elimination/combining degree
	// counters behind the paper's Tables 1-3.
	CollectMetrics bool

	// Adaptive enables the solo fast path: a push or pop attempts one
	// Treiber-style CAS directly when its aggregator's recent batch
	// degree is ~1, falling back to the full batch protocol on
	// contention. See DESIGN.md §8.
	Adaptive bool
}

func (o Options) withDefaults() Options {
	if o.Aggregators <= 0 {
		o.Aggregators = 2
	}
	if o.MaxThreads <= 0 {
		o.MaxThreads = 256
	}
	if o.FreezerSpin < 0 {
		o.FreezerSpin = 0
	}
	return o
}

// Stack is a SEC stack. Use Register to obtain per-goroutine handles.
type Stack[T any] struct {
	top atomic.Pointer[node[T]]

	eng *secEngine[T]
	rec *ebr.Manager[node[T]]
}

// New returns an empty SEC stack configured by opts.
func New[T any](opts Options) *Stack[T] {
	o := opts.withDefaults()
	s := &Stack[T]{}
	eliminate := agg.PairElim
	if o.NoElimination {
		eliminate = agg.NoElim
	}
	var m *metrics.SEC
	if o.CollectMetrics {
		m = metrics.NewSEC(o.Aggregators)
	}
	if o.Recycle {
		s.rec = ebr.NewManager[node[T]](o.MaxThreads)
	}
	s.eng = agg.New(agg.Spec[node[T], popChain[T]]{
		Aggregators:  o.Aggregators,
		MaxThreads:   o.MaxThreads,
		FreezerSpin:  o.FreezerSpin,
		AdaptiveSpin: o.AdaptiveSpin,
		Partitioned:  true,
		Adaptive:     o.Adaptive,
		Eliminate:    eliminate,
		ResetData:    s.resetChain,
		ApplyPush:    s.applyPush,
		ApplyPop:     s.applyPop,
		TrySoloPush:  s.trySoloPush,
		TrySoloPop:   s.trySoloPop,
		Metrics:      m,
	})
	return s
}

// resetChain clears a recycled batch's pop-chain payload so a reused
// batch cannot publish a previous incarnation's detached chain (or
// keep its nodes reachable for the GC).
func (s *Stack[T]) resetChain(p *popChain[T]) {
	p.top.Store(nil)
	p.pending.Store(0)
}

// Metrics returns the degree snapshot collector, or nil if
// CollectMetrics was not set.
func (s *Stack[T]) Metrics() *metrics.SEC { return s.eng.Metrics() }

// Handle is one goroutine's session on the stack: its engine session
// record, whose thread id maps to its aggregator. Handles must not be
// shared between goroutines.
type Handle[T any] struct {
	s      *Stack[T]
	sess   *agg.Session[node[T], popChain[T]]
	rec    *ebr.Handle[node[T]] // nil when recycling is off
	closed bool

	// spare is a scrubbed node recovered from a failed TryPush when no
	// reclamation substrate exists to take it (rec == nil); the next
	// alloc reuses it, so a contended steal sweep costs CASes, not
	// dead allocations.
	spare *node[T]
}

// Register returns a new handle. Thread ids are drawn from a lock-free
// free list and assigned round-robin across aggregators, giving the
// even distribution the paper prescribes; ids released by Close are
// reused, so MaxThreads bounds concurrently live handles rather than
// lifetime registrations. It panics once MaxThreads handles are live at
// the same time.
func (s *Stack[T]) Register() *Handle[T] {
	h, err := s.TryRegister()
	if err != nil {
		panic(err.Error())
	}
	return h
}

// TryRegister is Register with an error in place of the exhaustion
// panic, for callers that prefer backpressure over crashing.
func (s *Stack[T]) TryRegister() (*Handle[T], error) {
	sess, err := s.eng.Register()
	if err != nil {
		return nil, fmt.Errorf("core: more than MaxThreads=%d handles live", s.eng.MaxThreads())
	}
	h := &Handle[T]{s: s, sess: sess}
	if s.rec != nil {
		h.rec = s.rec.Register()
	}
	return h, nil
}

// SetDoneCadence amortizes this handle's announcement: the session's
// hazard is cleared on every k-th operation instead of every one, so
// long runs on one aggregator skip the per-op publish-and-revalidate
// (see agg.Session.SetDoneCadence for the safety bound). The implicit
// session layer sets it on its cached handles; explicit callers may
// too when a handle lives for many operations.
func (h *Handle[T]) SetDoneCadence(k int) {
	h.sess.SetDoneCadence(k)
}

// Close releases the handle's thread id (and its reclamation slot) for
// reuse by a future Register, so goroutine churn cannot exhaust
// MaxThreads. Close is idempotent; any other use of a closed handle is
// a bug. It must not be called while an operation on the handle is in
// flight.
func (h *Handle[T]) Close() {
	if h.closed {
		return
	}
	h.closed = true
	if h.rec != nil {
		h.rec.Close()
	}
	h.s.eng.Release(h.sess)
}

// alloc produces an initialized node, recycled when possible (from the
// EBR pool, or from the spare a failed TryPush left behind).
func (h *Handle[T]) alloc(v T) *node[T] {
	if h.rec == nil {
		if n := h.spare; n != nil {
			h.spare = nil
			n.value = v
			return n
		}
		return &node[T]{value: v}
	}
	n := h.rec.Alloc()
	n.value = v
	n.next = nil
	return n
}

// retire hands a consumed node to the reclamation substrate.
func (h *Handle[T]) retire(n *node[T]) {
	if h.rec != nil {
		h.rec.Retire(n)
	}
}

// enter/exit bracket one operation's EBR critical section (no-ops when
// recycling is off).
func (h *Handle[T]) enter() {
	if h.rec != nil {
		h.rec.Enter()
	}
}

func (h *Handle[T]) exit() {
	if h.rec != nil {
		h.rec.Exit()
	}
}

// Push adds v to the stack (Algorithm 1 of the paper). The batch
// lifecycle - announcement, freeze, elimination, combiner election -
// runs in the engine; an eliminated push returns right away (the
// paired pop reads the node from the elimination array), a surviving
// push returns once its batch's combiner spliced the substack.
func (h *Handle[T]) Push(v T) {
	h.enter()
	eng := h.s.eng
	eng.Push(h.sess, eng.AggOf(h.sess.ID()), h.alloc(v))
	h.sess.Done()
	h.exit()
}

// applyPush is the paper's PushToStack, executed only by a batch's
// push combiner: link the surviving nodes into a substack and splice it
// onto the shared stack with one CAS. WaitSlot covers announcers still
// between their fetch&increment and their slot store.
func (s *Stack[T]) applyPush(_ int, b *secBatch[T], seq, pushAtF int64) {
	bot := b.WaitSlot(seq) // the combiner's own node, already stored
	top := bot
	for i := seq + 1; i < pushAtF; i++ {
		n := b.WaitSlot(i)
		n.next = top
		top = n
	}
	for {
		oldTop := s.top.Load()
		bot.next = oldTop
		if s.top.CompareAndSwap(oldTop, top) {
			return
		}
	}
}

// Pop removes and returns the top element (Algorithm 2 of the paper);
// ok is false if the stack did not hold enough elements for this
// operation's slice of its batch.
func (h *Handle[T]) Pop() (v T, ok bool) {
	h.enter()
	eng := h.s.eng
	t := eng.Pop(h.sess, eng.AggOf(h.sess.ID()))
	if t.Elim != nil {
		// Eliminated: the paired push's node came straight from the
		// elimination array.
		val := t.Elim.value
		h.retire(t.Elim)
		h.sess.Done()
		h.exit()
		return val, true
	}
	v, ok = getValue(t.B, t.Off)
	h.releaseSubstack(t.B, t.K)
	h.sess.Done() // finished with the batch's published chain
	h.exit()
	return v, ok
}

// TryPop attempts to serve one pop with a single Treiber-style CAS
// through the session's scratch batch, bypassing the batch protocol
// regardless of the aggregator's mode - the cheap steal primitive
// behind the pool's peek-then-steal Get. applied=false means the CAS
// lost to a concurrent operation: the stack is unchanged, nothing was
// announced, and the caller may walk away or escalate to the full
// Pop. applied=true answers the pop: ok=false when the stack was
// observed empty (linearizing at the top load, like Pop), ok=true
// with the detached top's value otherwise. Unlike Pop it never joins
// a batch, never eliminates, and feeds no adaptivity signal - a
// foreign thief's probe says nothing about the home threads' degree.
func (h *Handle[T]) TryPop() (v T, ok, applied bool) {
	h.enter()
	eng := h.s.eng
	t, applied := eng.TryPop(h.sess, eng.AggOf(h.sess.ID()))
	if !applied {
		h.exit()
		return v, false, false
	}
	v, ok = getValue(t.B, t.Off)
	h.releaseSubstack(t.B, t.K)
	// No Done: TryPop announces on no shared batch, so the session's
	// hazard was never published.
	h.exit()
	return v, ok, true
}

// TryPush is TryPop's push-side twin: one Treiber-style CAS attempt
// splicing a single node under the top pointer through the session's
// scratch batch, bypassing the batch protocol regardless of the
// aggregator's mode - the steal primitive behind the pool's
// Put-overflow sweep. applied=false means the CAS lost to a concurrent
// operation: the stack is unchanged, nothing was announced, the node
// is recovered (into the handle's reclamation pool, or as the handle's
// spare when recycling is off), and the caller may try elsewhere or
// escalate to the full Push. Like TryPop it never joins a batch, never
// eliminates, and feeds no adaptivity signal.
func (h *Handle[T]) TryPush(v T) (applied bool) {
	h.enter()
	eng := h.s.eng
	n := h.alloc(v)
	if _, applied = eng.TryPush(h.sess, eng.AggOf(h.sess.ID()), n); !applied {
		// The node was never published; clear it and hand it straight
		// back so a failed attempt costs no allocation in steady state.
		var zero T
		n.value = zero
		n.next = nil
		if h.rec != nil {
			h.rec.Unalloc(n)
		} else {
			h.spare = n
		}
	}
	// No Done: TryPush announces on no shared batch, so the session's
	// hazard was never published.
	h.exit()
	return applied
}

// applyPop is the paper's PopFromStack, executed only by a batch's
// pop combiner: detach k nodes (or as many as exist) from the shared
// stack with one CAS and publish the removed chain.
func (s *Stack[T]) applyPop(_ int, b *secBatch[T], e, popAtF int64) {
	k := popAtF - e
	if s.rec != nil {
		b.Data.pending.Store(k) // published to waiters by the applied flag
	}
	for {
		oldTop := s.top.Load()
		newTop := oldTop
		for i := int64(0); i < k && newTop != nil; i++ {
			newTop = newTop.next
		}
		if s.top.CompareAndSwap(oldTop, newTop) {
			b.Data.top.Store(oldTop)
			return
		}
	}
}

// trySoloPush is the solo fast path's push applier: one Treiber-style
// CAS attempt splicing the scratch batch's single node under the top
// pointer. Failure leaves the stack unchanged and sends the operation
// through the full batch protocol.
func (s *Stack[T]) trySoloPush(_ int, b *secBatch[T]) bool {
	n := b.Slot(0)
	old := s.top.Load()
	n.next = old
	return s.top.CompareAndSwap(old, n)
}

// trySoloPop is the solo fast path's pop applier: one Treiber-style
// CAS attempt detaching the top node, published through the scratch
// batch's chain payload exactly as applyPop publishes a k-node chain
// (so getValue and releaseSubstack serve solo pops unchanged). An
// observed-empty stack "succeeds" with a nil chain - the operation
// linearizes at the top load. ABA is excluded the same way as in
// applyPop: under EBR recycling the operation is inside its critical
// section, and without it the garbage collector pins the node.
func (s *Stack[T]) trySoloPop(_ int, b *secBatch[T]) bool {
	old := s.top.Load()
	if old != nil && !s.top.CompareAndSwap(old, old.next) {
		return false
	}
	if s.rec != nil {
		b.Data.pending.Store(1)
	}
	b.Data.top.Store(old)
	return true
}

// getValue is the paper's GetValue: the pop with offset off into its
// batch's surviving pops receives the off-th node of the removed chain,
// or EMPTY if the stack ran out.
func getValue[T any](b *secBatch[T], off int64) (v T, ok bool) {
	n := b.Data.top.Load()
	for i := int64(0); i < off && n != nil; i++ {
		n = n.next
	}
	if n == nil {
		return v, false
	}
	return n.value, true
}

// releaseSubstack notes that one surviving pop has read its value; the
// last reader retires the batch's detached chain (recycling only).
func (h *Handle[T]) releaseSubstack(b *secBatch[T], k int64) {
	if h.rec == nil {
		return
	}
	if b.Data.pending.Add(-1) != 0 {
		return
	}
	n := b.Data.top.Load()
	for i := int64(0); i < k && n != nil; i++ {
		next := n.next
		h.retire(n)
		n = next
	}
}

// Peek returns the top element without removing it; a single atomic
// read of the top pointer, as in the paper.
func (h *Handle[T]) Peek() (v T, ok bool) {
	h.enter()
	if n := h.s.top.Load(); n != nil {
		// Read inside the critical section: under recycling the node
		// may be scrubbed and reused the moment we exit.
		v, ok = n.value, true
	}
	h.exit()
	return v, ok
}

// Len counts the elements currently on the shared stack; a racy
// diagnostic for tests and quiescent states.
func (s *Stack[T]) Len() int {
	n := 0
	for p := s.top.Load(); p != nil; p = p.next {
		n++
	}
	return n
}

// Aggregators reports K, for harness labeling.
func (s *Stack[T]) Aggregators() int { return s.eng.Aggregators() }

// RegisteredThreads reports how many handles are currently live
// (registered and not yet closed).
func (s *Stack[T]) RegisteredThreads() int { return s.eng.InUse() }

// DegreeEWMA reports the mean batch-degree EWMA across the stack's
// aggregators, in operations per batch - the per-shard contention
// estimate the pool's elastic controller reads.
func (s *Stack[T]) DegreeEWMA() float64 {
	k := s.eng.Aggregators()
	sum := 0.0
	for i := 0; i < k; i++ {
		sum += s.eng.DegreeEWMA(i)
	}
	return sum / float64(k)
}

// Solo reports whether every aggregator currently runs the solo fast
// path - the stack has seen no recent contention. Always false when
// Adaptive is off.
func (s *Stack[T]) Solo() bool {
	for i := 0; i < s.eng.Aggregators(); i++ {
		if !s.eng.SoloMode(i) {
			return false
		}
	}
	return true
}
