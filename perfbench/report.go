package main

import (
	"time"

	"secstack/internal/metrics"
)

const (
	// inProcSampleEvery times one op in this many; timing every op
	// would add two clock reads to a sub-microsecond operation.
	inProcSampleEvery = 16
	// segments is how many structures a run measures one after the
	// other, each for an equal share of the run. A structure's batching
	// can settle into a regime that lasts its lifetime; the run's
	// figures pool the windows of all.
	segments = 8
	// setupsPerSegment is how many set-ups are timed before each
	// segment; setup_s is the median of all of them. Single set-ups
	// range over an order of magnitude (page faults, GC, host steal),
	// and a burst of steal can cover a whole block of them, hence
	// blocks spread over the run.
	setupsPerSegment = 13
)

// segmented times setupsPerSegment set-ups before each segment, then
// runs measure with the segment's own seed; it pools the segments'
// windows and returns them with every set-up time. A failed set-up or
// output check fails the run.
func segmented(rc runConfig, r *result, setup func() (time.Duration, error), measure func(seed uint64, p plan) (phase, error)) (phase, []time.Duration) {
	p := planFor(rc.seconds / segments)
	var all phase
	var setups []time.Duration
	for seg := range segments {
		for range setupsPerSegment {
			d, err := setup()
			if err != nil {
				r.fail("setup: %v", err)
				return all, setups
			}
			setups = append(setups, d)
		}
		ph, err := measure(rc.seed^uint64(seg)<<48, p)
		if err != nil {
			r.fail("segment %d: %v", seg, err)
			if len(ph.durs) == 0 {
				continue
			}
		}
		all = all.join(ph)
	}
	return all, setups
}

// fillEndToEnd sets the end-to-end metrics of one measured phase; a
// run whose set-up failed before any window leaves them 0.
func fillEndToEnd(r *result, ph phase, setups []time.Duration) {
	if len(ph.quiet) == 0 {
		r.fail("no window was measured")
		return
	}
	r.metrics["throughput_ops_s"] = ph.throughput()
	for _, q := range []struct {
		name string
		q    float64
	}{{"latency_p50_ns", 0.5}, {"latency_p99_ns", 0.99}} {
		v, ok := ph.latency(q.q)
		if !ok {
			r.fail("%s: over half the windows have fewer than %d samples beyond the percentile", q.name, minBeyond)
		}
		r.metrics[q.name] = v
	}
	r.metrics["allocs_per_op"] = ph.allocsPerOp()
	r.metrics["setup_s"] = medianSeconds(setups)
	r.note("latency samples %d over %d windows of %v on %d structures; figures come from the %d windows with the least host steal (%.1f%% of CPU time stolen over the run); setup median of %d",
		ph.samples, len(ph.durs), ph.durs[0].Round(time.Millisecond), segments, len(ph.quiet), 100*ph.stealShare(), len(setups))
}

// fillAgg sets the agg-layer metrics from a WithMetrics snapshot.
func fillAgg(r *result, s metrics.Snapshot) {
	r.metrics["agg.batch_degree"] = s.BatchingDegree()
	r.metrics["agg.elim_pct"] = s.EliminationPct()
	r.metrics["agg.combine_pct"] = s.CombiningPct()
	r.metrics["agg.spin_avg"] = s.SpinAvg()
	r.metrics["agg.reclaim_skip_pct"] = s.ReclaimSkipPct()
	r.metrics["agg.fastpath_hit_pct"] = s.FastPathPct()
	r.metrics["agg.shard_resizes"] = float64(s.SpinInherits + s.ShardGrows + s.ShardShrinks)
}

// fillRuntime sets the runtime metrics from the untraced phase and the
// tracing overhead from the traced one.
func fillRuntime(r *result, base, traced phase) {
	r.metrics["runtime.bytes_per_op"] = float64(base.bytes) / float64(max(base.total, 1))
	r.metrics["runtime.gc_per_mop"] = float64(base.gcs) / float64(max(base.total, 1)) * 1e6
	if b := base.throughput(); b > 0 {
		r.metrics["trace.overhead_pct"] = 100 * (1 - traced.throughput()/b)
	}
}

// writeTrace writes the run's spans and notes where.
func writeTrace(rc runConfig, r *result, workload string, tracers []*tracer) {
	path, err := writeSpans(rc.traceDir, workload, rc.stamp, tracers)
	if err != nil {
		r.note("spans not written: %v", err)
		return
	}
	r.note("spans written to %s", path)
}

func pct(part, whole int64) float64 { return 100 * float64(part) / float64(max(whole, 1)) }
