// Package secstack is a from-scratch Go reproduction of "Sharded
// Elimination and Combining for Highly-Efficient Concurrent Stacks"
// (Singh, Metaxakis, Fatourou; PPoPP '26). See README.md for the
// architecture diagram, the functional-options matrix, and the
// figure-reproduction workflow.
//
// The public API lives in secstack/stack: the SEC stack itself plus the
// five baseline concurrent stacks the paper evaluates against (Treiber,
// elimination-backoff, flat combining, CC-Synch, interval timestamped),
// all constructed through one registry (stack.New) and one shared
// functional-option vocabulary, with closable per-goroutine handles
// whose slots recycle under goroutine churn. The sibling packages
// secstack/deque, secstack/pool and secstack/funnel apply the same
// machinery - and the same option and handle-lifecycle contracts - to a
// double-ended queue, an object pool and a sharded fetch&add counter.
//
// One implementation of the paper's aggregator/batch lifecycle -
// announcement, the freezer race and its batch-growing backoff,
// elimination, combiner election, session recycling, degree metrics -
// lives in internal/agg; the stack (internal/core, which the pool
// builds on), the deque and the funnel instantiate that engine with
// their own eliminator (pairwise for stack and deque, identity for the
// funnel) and appliers (a splice-substack CAS, a per-end mutex apply,
// a hardware fetch&add plus prefix sums). See DESIGN.md §1 for the
// instantiation table.
//
// Beyond the paper, the engine is contention-adaptive (DESIGN.md
// §8-§10): a solo fast path and an adaptive freezer backoff adapt the
// batching machinery to the observed load, always-on batch recycling
// and epoch-batched hazard reclamation make the steady-state freeze
// path allocation-free, and single-CAS steal primitives (TryPush,
// TryPop) give the pool bidirectional cross-shard load balancing - Get
// steals from quiet shards, Put overflows away from saturated ones.
//
// The benchmark families in bench_test.go and the cmd/secbench tool
// regenerate every figure and table of the paper's evaluation; see
// DESIGN.md for the experiment index and EXPERIMENTS.md for measured
// results.
package secstack
