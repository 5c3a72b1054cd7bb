package stack

import "secstack/internal/config"

// Option configures a stack constructor. Options are shared across the
// whole repository - the deque, pool and funnel packages alias the same
// underlying type - so one vocabulary configures every structure, and
// options an algorithm does not understand are simply ignored (the
// registry forwards the full set to all six algorithms).
type Option = config.Option

// WithAggregators sets K, the number of shards threads are partitioned
// into (SEC; also the funnel's aggregator count). The paper's
// evaluation defaults to 2.
func WithAggregators(k int) Option { return config.WithAggregators(k) }

// WithMaxThreads bounds the number of concurrently live handles
// (default 256). With Close-based slot recycling this is a concurrency
// bound, not a lifetime bound: any number of handles may be registered
// over time as long as at most n are open at once.
func WithMaxThreads(n int) Option { return config.WithMaxThreads(n) }

// WithFreezerSpin sets the freezer's batch-growing pre-freeze backoff
// in spin iterations (SEC, deque, funnel; §3.1 of the paper). Default
// 128; 0 disables it, keeping batches small. Under WithAdaptiveSpin
// this is the controller's ceiling rather than the delay every freeze
// pays.
func WithFreezerSpin(s int) Option { return config.WithFreezerSpin(s) }

// WithAdaptiveSpin toggles the adaptive freezer backoff in the
// batch-protocol structures (SEC, deque, funnel; pool shards honour
// it too): each aggregator tunes its own pre-freeze spin on the
// batch-degree EWMA, growing toward WithFreezerSpin while batches
// freeze well-filled and decaying toward zero while they freeze
// near-empty, so lightly loaded aggregators stop paying the backoff
// the paper sizes for high contention. See DESIGN.md §9.
func WithAdaptiveSpin(on bool) Option { return config.WithAdaptiveSpin(on) }

// WithoutElimination disables SEC's in-batch elimination, leaving
// freezing and combining intact - the paper's ablation isolating how
// much of the win comes from elimination versus combining.
func WithoutElimination() Option { return config.WithoutElimination() }

// WithRecycling routes SEC stack nodes through DEBRA-style epoch-based
// reclamation instead of fresh allocation, the Go analogue of the
// paper's DEBRA deployment (§4).
func WithRecycling() Option { return config.WithRecycling() }

// WithAdaptive toggles the solo fast path in SEC (and the other
// batch-protocol structures honouring the shared option): one direct
// Treiber-style CAS when an aggregator's recent batch degree is ~1,
// falling back to the full batch protocol on contention. The
// aggregator count stays WithAggregators. See DESIGN.md §8.
func WithAdaptive(on bool) Option { return config.WithAdaptive(on) }

// WithMetrics enables the batching/elimination/combining degree and
// batch-occupancy counters behind the paper's Tables 1-3, retrievable
// via SECStack.Metrics. The deque and funnel packages honour the same
// option (their engines record the same counters); cmd/secbench -table
// reports all three.
func WithMetrics() Option { return config.WithMetrics() }

// WithBackoff sets the Treiber stack's randomized exponential backoff
// window in spin iterations (default [4, 1024]).
func WithBackoff(min, max int) Option { return config.WithBackoff(min, max) }

// WithElimArray sets the EB stack's elimination array size (default 16)
// and per-visit patience in wait steps (default 64).
func WithElimArray(size, patience int) Option { return config.WithElimArray(size, patience) }

// WithCombinerRounds sets the FC combiner's publication-list scan
// rounds per lock acquisition (default 2).
func WithCombinerRounds(r int) Option { return config.WithCombinerRounds(r) }

// WithServeLimit sets CC-Synch's H, the maximum requests one combiner
// serves before passing the role on (default 64).
func WithServeLimit(h int) Option { return config.WithServeLimit(h) }

// WithTimestampDelay sets the TS-interval stack's interval-widening
// delay between a push's two clock reads (default 32; 0 disables).
func WithTimestampDelay(d int) Option { return config.WithTimestampDelay(d) }

// WithImplicitSessions toggles the per-P affinity tier behind the
// handle-free Push/Pop/Peek methods (default on): an implicit op on
// P k reuses P k's cached handle, so consecutive handle-free calls
// keep the same session - same aggregator, same solo scratch batch -
// instead of drawing a fresh one from a pool. Off, implicit ops fall
// back to the spill-pool-only borrow path. The deque, pool and funnel
// packages honour the same option for their handle-free APIs.
func WithImplicitSessions(on bool) Option { return config.WithImplicitSessions(on) }

// WithAnnounceEvery sets the amortized-announcement cadence of cached
// implicit sessions: a cached handle publishes its reclamation hazard
// slot once per k handle-free ops instead of once per op (default 8;
// 1 restores the eager per-op clear). Larger cadences shave an atomic
// store off the implicit hot path at the cost of an idle cached
// session pinning at most one retired batch until its window closes -
// the same bound the hazard scan already tolerates for a session
// parked mid-operation.
func WithAnnounceEvery(k int) Option { return config.WithAnnounceEvery(k) }
