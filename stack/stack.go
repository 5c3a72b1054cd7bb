// Package stack is the public API of secstack: a uniform interface over
// the SEC stack of Singh, Metaxakis and Fatourou (PPoPP '26) and the
// five baseline concurrent stacks its evaluation compares against.
//
// The quickstart needs no handle management at all - every stack type
// carries convenience Push/Pop/Peek methods that borrow a cached
// per-goroutine handle behind the scenes:
//
//	s, err := stack.New[int](stack.SEC)
//	...
//	s.Push(42)
//	if v, ok := s.Pop(); ok { use(v) }
//
// The explicit-handle path remains the fast path for worker loops:
// construct a stack once, have each worker goroutine Register its own
// Handle, operate through it, and Close it when the goroutine is done.
// Handles carry per-thread state (thread ids, backoff state,
// publication records, pools) and must not be shared between
// goroutines; stacks themselves may be shared freely. Closing a handle
// returns its thread-id slot to a lock-free free list for reuse, so
// goroutine churn never exhausts WithMaxThreads:
//
//	s := stack.NewSEC[int]()
//	...
//	go func() {
//		h := s.Register()
//		defer h.Close()
//		h.Push(42)
//		if v, ok := h.Pop(); ok { use(v) }
//	}()
//
// Configuration is uniform functional options (see Option); the same
// option set configures all six algorithms through New, each algorithm
// reading the knobs it understands - and the sibling deque, pool and
// funnel packages alias the same option type, so one vocabulary
// configures the whole repository (README.md carries the full
// option-by-structure matrix). SEC's engine-level knobs - adaptivity
// (WithAdaptive) and the adaptive freezer backoff (WithAdaptiveSpin) -
// are documented on their options below and in DESIGN.md §8-§10. Batch
// recycling is not a knob: SEC always reuses its frozen batches, so the
// freeze path allocates nothing in steady state.
package stack

import (
	"errors"
	"fmt"
	"strings"

	"secstack/internal/ccstack"
	"secstack/internal/config"
	"secstack/internal/core"
	"secstack/internal/ebstack"
	"secstack/internal/fcstack"
	"secstack/internal/isession"
	"secstack/internal/metrics"
	"secstack/internal/treiber"
	"secstack/internal/tsstack"
)

// Handle is a per-goroutine session on a concurrent stack. A Handle
// must be used by the goroutine that obtained it and by no other, and
// Closed when its goroutine is done with the stack so the handle's
// thread-id slot can be recycled.
type Handle[T any] interface {
	// Push adds v to the top of the stack.
	Push(v T)
	// Pop removes and returns the top element; ok is false if the stack
	// was empty at the operation's linearization point.
	Pop() (v T, ok bool)
	// Peek returns the top element without removing it; ok is false if
	// the stack is empty.
	Peek() (v T, ok bool)
	// Close releases the handle's per-thread resources (thread id,
	// reclamation slot, publication record) for reuse by a future
	// Register. Close is idempotent; any other use of a closed handle
	// is a bug.
	Close()
}

// ErrExhausted is returned by TryRegister when MaxThreads handles are
// live at the same time - the backpressure signal for callers (like
// the secd server mapping connections onto handles) that prefer
// refusing a session over crashing.
var ErrExhausted = errors.New("stack: more than MaxThreads handles live")

// Stack is a linearizable concurrent LIFO stack. Register hands out
// per-goroutine handles (the fast path); the direct Push/Pop/Peek
// methods transparently borrow a pooled handle per call, trading a
// little overhead for zero session management.
type Stack[T any] interface {
	// Register returns a fresh Handle for the calling goroutine.
	Register() Handle[T]
	// TryRegister is Register with ErrExhausted in place of the
	// exhaustion panic, for callers that prefer backpressure over
	// crashing - the same contract the pool and funnel packages offer.
	TryRegister() (Handle[T], error)
	// Push adds v to the top of the stack through a cached handle.
	Push(v T)
	// Pop removes and returns the top element through a cached handle.
	Pop() (v T, ok bool)
	// Peek returns the top element through a cached handle.
	Peek() (v T, ok bool)
}

// Algorithm names the implementations available through New, matching
// the labels of the paper's evaluation.
type Algorithm string

// The six algorithms of the paper's evaluation.
const (
	SEC Algorithm = "SEC" // sharded elimination and combining (the paper's contribution)
	TRB Algorithm = "TRB" // Treiber's CAS stack
	EB  Algorithm = "EB"  // elimination-backoff stack
	FC  Algorithm = "FC"  // flat-combining stack
	CC  Algorithm = "CC"  // CC-Synch combining stack
	TSI Algorithm = "TSI" // interval timestamped stack
)

// registry describes every algorithm New can construct, in the paper's
// presentation order. Construction itself happens in New's switch -
// Go's generics keep type-parameterized constructors out of table
// values - so a new entry here must be matched by a case there;
// TestConformanceAllAlgorithms constructs every listed algorithm and
// fails the build of any entry the switch does not cover.
var registry = []struct {
	Alg  Algorithm
	Desc string
}{
	{SEC, "sharded elimination and combining (PPoPP '26, the paper's contribution)"},
	{TRB, "Treiber's lock-free CAS stack (1986)"},
	{EB, "elimination-backoff stack (SPAA '04)"},
	{FC, "flat-combining stack (SPAA '10)"},
	{CC, "CC-Synch combining stack (PPoPP '12)"},
	{TSI, "interval timestamped stack (POPL '15)"},
}

// Algorithms lists every available algorithm in the paper's
// presentation order.
func Algorithms() []Algorithm {
	out := make([]Algorithm, len(registry))
	for i, e := range registry {
		out[i] = e.Alg
	}
	return out
}

// Describe returns a one-line description of the algorithm, or "" for
// unknown names.
func Describe(a Algorithm) string {
	for _, e := range registry {
		if e.Alg == a {
			return e.Desc
		}
	}
	return ""
}

// New constructs the named algorithm, forwarding the full option set;
// each algorithm applies the knobs it understands (every one honours
// WithMaxThreads-style lifecycle options where it keeps per-thread
// state). Unknown algorithms are reported as an error rather than a
// silent false.
func New[T any](alg Algorithm, opts ...Option) (Stack[T], error) {
	switch alg {
	case SEC:
		return NewSEC[T](opts...), nil
	case TRB:
		return NewTreiber[T](opts...), nil
	case EB:
		return NewEB[T](opts...), nil
	case FC:
		return NewFC[T](opts...), nil
	case CC:
		return NewCC[T](opts...), nil
	case TSI:
		return NewTSI[T](opts...), nil
	}
	return nil, fmt.Errorf("stack: unknown algorithm %q (known: %v)", alg, Algorithms())
}

// tryRegister adapts a panicking register closure into the
// error-surfacing form isession and TryRegister need. Every
// algorithm's registration panics with a "handles live" message when
// MaxThreads handles are concurrently live (algorithms without
// per-thread state never exhaust); this absorbs exactly that panic,
// so it works uniformly across the registry without each algorithm
// growing a second registration path.
func tryRegister[T any](register func() Handle[T]) (h Handle[T], err error) {
	defer func() {
		if r := recover(); r != nil {
			if msg, ok := r.(string); ok && strings.Contains(msg, "handles live") {
				h, err = nil, ErrExhausted
				return
			}
			panic(r)
		}
	}()
	return register(), nil
}

// sessions implements the implicit-handle convenience layer every
// public stack type embeds, on the shared per-P cache
// (internal/isession): the direct Push/Pop/Peek methods reuse the
// calling P's cached handle, so consecutive implicit ops keep the same
// session id - same aggregator, same solo scratch batch - and the
// engine's solo fast path stays hot. Handles the cache's spill tier
// drops under GC pressure are closed by a runtime cleanup, so their
// thread-id slots always flow back to the free list; the per-P tier
// itself keeps up to GOMAXPROCS handles registered for the stack's
// lifetime (see isession.Sessions).
type sessions[T any] struct {
	register func() Handle[T]
	cache    *isession.Sessions[Handle[T]]
}

// makeSessions builds the implicit layer. implicitRegister mints the
// handles the cache keeps (SEC uses it to set the amortized Done
// cadence on cached handles without touching explicit ones); the
// plain register stays the Register/TryRegister path.
func makeSessions[T any](affinity bool, register, implicitRegister func() Handle[T]) sessions[T] {
	return sessions[T]{
		register: register,
		cache: isession.New(affinity,
			func() (Handle[T], error) { return tryRegister(implicitRegister) },
			func(h Handle[T]) { h.Close() }),
	}
}

// Register returns a fresh Handle for the calling goroutine.
func (s *sessions[T]) Register() Handle[T] { return s.register() }

// TryRegister is Register with ErrExhausted in place of the exhaustion
// panic.
func (s *sessions[T]) TryRegister() (Handle[T], error) {
	return tryRegister(s.register)
}

// Push adds v to the top of the stack through a cached handle.
func (s *sessions[T]) Push(v T) {
	e := s.cache.Acquire()
	e.H.Push(v)
	s.cache.Release(e)
}

// Pop removes and returns the top element through a cached handle.
func (s *sessions[T]) Pop() (v T, ok bool) {
	e := s.cache.Acquire()
	v, ok = e.H.Pop()
	s.cache.Release(e)
	return v, ok
}

// Peek returns the top element through a cached handle.
func (s *sessions[T]) Peek() (v T, ok bool) {
	e := s.cache.Acquire()
	v, ok = e.H.Peek()
	s.cache.Release(e)
	return v, ok
}

// SECStack is the concrete SEC stack type; it implements Stack and
// additionally exposes its degree metrics.
type SECStack[T any] struct {
	sessions[T]
	s *core.Stack[T]
}

// NewSEC returns a SEC stack. With no options it uses the paper's
// defaults: two aggregators, elimination on, freezer spin 128, no
// recycling, up to 256 concurrently live handles.
func NewSEC[T any](opts ...Option) *SECStack[T] {
	c := config.Resolve(opts)
	st := &SECStack[T]{s: core.New[T](core.Options{
		Aggregators:    c.Aggregators,
		MaxThreads:     c.MaxThreads,
		FreezerSpin:    c.FreezerSpin,
		AdaptiveSpin:   c.AdaptiveSpin,
		NoElimination:  c.NoElimination,
		Recycle:        c.Recycle,
		CollectMetrics: c.CollectMetrics,
		Adaptive:       c.Adaptive,
	})}
	register := func() Handle[T] { return st.s.Register() }
	// Cached implicit handles publish their hazard slot once per
	// AnnounceEvery ops (amortized announcement); explicit handles keep
	// the eager per-op clear unless the caller opts in.
	implicit := func() Handle[T] {
		h := st.s.Register()
		h.SetDoneCadence(c.AnnounceEvery)
		return h
	}
	st.sessions = makeSessions[T](c.ImplicitAffinity, register, implicit)
	return st
}

// Metrics returns the degree snapshot collector, or nil if WithMetrics
// was not given.
func (s *SECStack[T]) Metrics() *metrics.SEC { return s.s.Metrics() }

// Len counts elements; racy diagnostic for quiescent states.
func (s *SECStack[T]) Len() int { return s.s.Len() }

// wrapped adapts any registerable implementation to Stack.
type wrapped[T any] struct{ sessions[T] }

func wrap[T any](c config.Config, register func() Handle[T]) Stack[T] {
	return &wrapped[T]{makeSessions(c.ImplicitAffinity, register, register)}
}

// NewTreiber returns Treiber's lock-free CAS stack (TRB).
func NewTreiber[T any](opts ...Option) Stack[T] {
	c := config.Resolve(opts)
	s := treiber.New[T](treiber.WithBackoff(c.BackoffMin, c.BackoffMax))
	return wrap(c, func() Handle[T] { return s.Register() })
}

// NewEB returns the elimination-backoff stack (EB).
func NewEB[T any](opts ...Option) Stack[T] {
	c := config.Resolve(opts)
	s := ebstack.New[T](ebstack.WithArraySize(c.ElimArraySize), ebstack.WithPatience(c.ElimPatience))
	return wrap(c, func() Handle[T] { return s.Register() })
}

// NewFC returns the flat-combining stack (FC).
func NewFC[T any](opts ...Option) Stack[T] {
	c := config.Resolve(opts)
	s := fcstack.New[T](fcstack.WithCombinerRounds(c.CombinerRounds))
	return wrap(c, func() Handle[T] { return s.Register() })
}

// NewCC returns the CC-Synch combining stack (CC).
func NewCC[T any](opts ...Option) Stack[T] {
	c := config.Resolve(opts)
	s := ccstack.New[T](ccstack.WithServeLimit(c.ServeLimit))
	return wrap(c, func() Handle[T] { return s.Register() })
}

// NewTSI returns the interval timestamped stack (TSI).
func NewTSI[T any](opts ...Option) Stack[T] {
	c := config.Resolve(opts)
	s := tsstack.New[T](tsstack.WithMaxThreads(c.MaxThreads), tsstack.WithDelay(c.TimestampDelay))
	return wrap(c, func() Handle[T] { return s.Register() })
}
