// Package funnel implements a software fetch&add in the style of
// aggregating funnels (Roh, Wei, Ruppert, Fatourou, Jayanti, Shun;
// PPoPP '24) - the work the paper credits for SEC's nested-sharding
// idea. It demonstrates that SEC's aggregator/batch/freeze machinery is
// of independent interest: the exact same protocol, minus elimination
// and with a prefix-sum in place of a substack, yields a scalable
// shared counter. Concretely, the package instantiates the shared
// internal/agg engine with the identity eliminator (fetch&add has no
// opposite operation type to cancel against) and a single-sided
// applier: the batch's delegate - its combiner - applies the batch
// total to the central counter with one hardware fetch&add and
// publishes per-operation prefix sums.
//
// Threads are partitioned across aggregators; each aggregator batches
// the fetch&add amounts announced by its threads. The first announcer
// of a batch freezes it (after a batch-growing backoff) and acts as the
// delegate, so every announcer receives the value it would have seen
// had the operations run in sequence-number order.
//
// Frozen batches - slot arrays and prefix-sum tables - are always
// recycled, so the delegation path allocates nothing in steady state.
package funnel

import (
	"errors"
	"fmt"
	"sync/atomic"

	"secstack/internal/agg"
	"secstack/internal/config"
	"secstack/internal/isession"
	"secstack/internal/metrics"
)

// fnBatch and fnEngine name this package's engine instantiation: the
// announced record is the add amount, and the per-batch payload is the
// delegate's prefix-sum table.
type (
	fnBatch  = agg.Batch[int64, []int64]
	fnEngine = agg.Engine[int64, []int64]
)

// Funnel is a sharded fetch&add counter. Register hands out
// per-goroutine handles (the fast path for worker loops); the direct
// Add method transparently reuses the calling P's cached handle, so
// handle-free callers need no session management at all.
type Funnel struct {
	counter atomic.Int64
	eng     *fnEngine

	cache *isession.Sessions[*Handle]
}

// Option configures New; it is the shared option type of the whole
// repository, so the stack package's WithAggregators, WithMaxThreads
// and WithFreezerSpin work here unchanged.
type Option = config.Option

// WithAggregators sets the shard count (default 2, as in SEC).
func WithAggregators(k int) Option { return config.WithAggregators(k) }

// WithMaxThreads bounds concurrently live handles (default 256). Close
// recycles handle slots, so this is a concurrency bound, not a lifetime
// bound.
func WithMaxThreads(n int) Option { return config.WithMaxThreads(n) }

// WithDelegateSpin sets the delegate's batch-growing backoff in spin
// iterations (default 128; 0 disables). It is the funnel's name for
// the freezer spin of the shared internal/agg engine - the funnel
// keeps no private freezer: the first FetchAdd to announce on an
// aggregator's batch wins the engine's freezer race, becomes the
// batch's delegate, and spins this long before snapshotting the
// counter so later announcers land in the batch it will apply with
// one hardware fetch&add. Larger values aggregate more amounts per
// fetch&add at the price of latency. Under WithAdaptiveSpin this
// value is the ceiling the per-aggregator controller grows toward,
// not the delay every delegation pays.
func WithDelegateSpin(s int) Option { return config.WithFreezerSpin(s) }

// WithAdaptiveSpin toggles the adaptive delegate backoff: each
// aggregator tunes its pre-freeze spin on its batch-degree EWMA,
// growing toward WithDelegateSpin while batches freeze well-filled
// and decaying toward zero while they freeze near-empty, so an
// uncontended funnel's delegations stop waiting for announcers that
// are not coming.
func WithAdaptiveSpin(on bool) Option { return config.WithAdaptiveSpin(on) }

// WithInitial sets the counter's starting value.
func WithInitial(v int64) Option { return config.WithInitial(v) }

// WithMetrics enables the per-aggregator batch occupancy counters,
// retrievable via Metrics. A funnel's elimination rate is zero by
// construction (the identity eliminator).
func WithMetrics() Option { return config.WithMetrics() }

// WithAdaptive toggles contention adaptivity: when an aggregator's
// recent batch degree is ~1, a FetchAdd applies directly with one CAS
// attempt on the central counter (skipping announcement, freeze and
// delegation entirely) and falls back to the full protocol when the
// CAS is contended.
func WithAdaptive(on bool) Option { return config.WithAdaptive(on) }

// WithImplicitSessions toggles the per-P affinity tier behind the
// handle-free Add method (default on); see the stack package's option
// of the same name.
func WithImplicitSessions(on bool) Option { return config.WithImplicitSessions(on) }

// WithAnnounceEvery sets the cached implicit sessions' amortized
// hazard-announcement cadence (default 8; 1 restores the eager per-op
// clear); see the stack package's option of the same name.
func WithAnnounceEvery(k int) Option { return config.WithAnnounceEvery(k) }

// New returns a funnel counter.
func New(opts ...Option) *Funnel {
	c := config.Resolve(opts)
	f := &Funnel{}
	f.counter.Store(c.Initial)
	var m *metrics.SEC
	if c.CollectMetrics {
		m = metrics.NewSEC(c.Aggregators)
	}
	f.eng = agg.New(agg.Spec[int64, []int64]{
		Aggregators:  c.Aggregators,
		MaxThreads:   c.MaxThreads,
		FreezerSpin:  c.FreezerSpin,
		AdaptiveSpin: c.AdaptiveSpin,
		Partitioned:  true,
		SingleSided:  true, // announcements use the push side only
		Adaptive:     c.Adaptive,
		Eliminate:    agg.NoElim,
		MakeData:     func(n int) []int64 { return make([]int64, n) },
		// No ResetData: prefix sums carry no references, and the
		// delegate overwrites every entry a reader can reach before the
		// applied handshake.
		ApplyPush:   f.applyBatch,
		TrySoloPush: f.trySoloAdd,
		// ApplyPop is never reached: the funnel announces on the push
		// side only.
		Metrics: m,
	})
	// Cached implicit handles clear their hazard once per
	// AnnounceEvery ops (amortized announcement); explicit handles keep
	// the eager per-op clear.
	f.cache = isession.New(c.ImplicitAffinity, func() (*Handle, error) {
		h, err := f.TryRegister()
		if err != nil {
			return nil, err
		}
		h.sess.SetDoneCadence(c.AnnounceEvery)
		return h, nil
	}, func(h *Handle) { h.Close() })
	return f
}

// Add atomically adds amount to the counter through a cached per-P
// handle and returns the value the counter held immediately before
// this operation's place in the batch order - handle-free FetchAdd.
func (f *Funnel) Add(amount int64) int64 {
	e := f.cache.Acquire()
	v := e.H.FetchAdd(amount)
	f.cache.Release(e)
	return v
}

// trySoloAdd is the solo fast path: one CAS attempt on the central
// counter. A raw fetch&add would be marginally cheaper but can never
// fail, and an attempt that cannot fail cannot observe contention -
// the engine's degree EWMA would pin the funnel in solo mode forever
// and the batching (the very thing an aggregating funnel exists for)
// could never engage. The CAS loses exactly when another operation
// moved the counter first, which is the contention signal that sends
// the operation - and soon the aggregator - back to the full protocol.
func (f *Funnel) trySoloAdd(_ int, b *fnBatch) bool {
	amt := *b.Slot(0)
	old := f.counter.Load()
	if !f.counter.CompareAndSwap(old, old+amt) {
		return false
	}
	b.Data[0] = old
	return true
}

// Metrics returns the per-aggregator degree collector, or nil if
// WithMetrics was not given.
func (f *Funnel) Metrics() *metrics.SEC { return f.eng.Metrics() }

// Handle is a per-goroutine session. Handles must not be shared between
// goroutines, and should be Closed when their goroutine is done so the
// handle slot recycles.
type Handle struct {
	f    *Funnel
	sess *agg.Session[int64, []int64] // nil once closed

	// amt is the handle's announcement record. One scratch word per
	// handle suffices: every slot of a frozen batch is read by its
	// delegate before the applied flag is raised, and the announcing
	// operation returns only after that flag (or after a post-freeze
	// retry, whose abandoned slot is never read) - so by the time this
	// handle's next FetchAdd overwrites amt, no reader can still need
	// the previous value. (Batch recycling tightens the argument
	// further: recycled slots are cleared before reuse.)
	amt int64
}

// ErrExhausted is returned by TryRegister when MaxThreads handles are
// live at the same time.
var ErrExhausted = errors.New("funnel: more than MaxThreads handles live")

// Register returns a new handle. Thread ids released by Close are
// recycled, so registration panics only when MaxThreads handles are
// live at the same time; TryRegister is the non-panicking variant.
func (f *Funnel) Register() *Handle {
	h, err := f.TryRegister()
	if err != nil {
		panic(fmt.Sprintf("funnel: more than MaxThreads=%d handles live", f.eng.MaxThreads()))
	}
	return h
}

// TryRegister is Register with ErrExhausted in place of the exhaustion
// panic, for callers (like the secd server mapping connections onto
// handles) that prefer backpressure over crashing - the same contract
// the stack, deque and pool packages offer.
func (f *Funnel) TryRegister() (*Handle, error) {
	sess, err := f.eng.Register()
	if err != nil {
		return nil, ErrExhausted
	}
	return &Handle{f: f, sess: sess}, nil
}

// Close releases the handle's thread id for reuse by a future Register.
// Close is idempotent; any other use of a closed handle is a bug.
func (h *Handle) Close() {
	if h.sess == nil {
		return
	}
	h.f.eng.Release(h.sess)
	h.sess = nil
}

// Load returns the counter's current value. Batched amounts become
// visible atomically when their delegate applies the batch.
func (f *Funnel) Load() int64 { return f.counter.Load() }

// FetchAdd atomically adds amount to the counter and returns the value
// the counter held immediately before this operation's place in the
// batch order - the same contract as a hardware fetch&add.
func (h *Handle) FetchAdd(amount int64) int64 {
	h.amt = amount
	eng := h.f.eng
	t := eng.Push(h.sess, eng.AggOf(h.sess.ID()), &h.amt)
	v := t.B.Data[t.Seq]
	h.sess.Done() // finished with the batch's prefix-sum table
	return v
}

// TryFetchAdd attempts FetchAdd with a single CAS on the central
// counter through the session's scratch batch, bypassing announcement
// and delegation regardless of the aggregator's mode - the funnel's
// twin of the engine's TryPush/TryPop steal primitives, for callers
// that would rather retry or walk away than wait out a batch.
// applied=false means the CAS lost to a concurrent operation: the
// counter is unchanged and nothing was announced. applied=true returns
// the value the counter held immediately before the add, exactly as
// FetchAdd does.
func (h *Handle) TryFetchAdd(amount int64) (old int64, applied bool) {
	h.amt = amount
	eng := h.f.eng
	t, applied := eng.TryPush(h.sess, eng.AggOf(h.sess.ID()), &h.amt)
	if !applied {
		return 0, false
	}
	return t.B.Data[t.Seq], true
}

// applyBatch is the delegate's combiner body: walk the frozen batch's
// announced amounts in sequence order accumulating prefix sums, apply
// the total to the central counter with a single hardware fetch&add,
// and rebase the prefixes on the value the counter held before the
// batch.
func (f *Funnel) applyBatch(_ int, b *fnBatch, seq, frozen int64) {
	total := int64(0)
	for i := seq; i < frozen; i++ {
		b.Data[i] = total // prefix before operation i
		total += *b.WaitSlot(i)
	}
	base := f.counter.Add(total) - total
	for i := seq; i < frozen; i++ {
		b.Data[i] += base
	}
}
