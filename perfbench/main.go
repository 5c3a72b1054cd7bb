// Command perfbench is secstack's end-to-end benchmark. One process
// runs the named workloads against the structures built with their
// shipped defaults, checks every workload's output, and prints each
// metric by name and unit; the last line of standard output is one
// JSON object with the keys correct, attempted, failed and metrics.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload stack-update --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --seed 1 --seconds 5                 # every workload
//
// --trace 0 reports the end-to-end metrics; --trace 1 is the separate
// traced run that reports the per-layer metrics and writes its spans
// to --trace-dir. README.md in this directory gives each workload's
// rationale and which layer metric should move which end-to-end
// metric. The exit code is 0 when every output check passed, 1 when
// one failed (the result line is still printed) and 2 on a usage
// error.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics of a run with --trace 0. failed_op_frac is
// printed in the report for every workload but left out of the result
// line, which carries attempted and failed instead: on a healthy run
// it is 0.
var endToEnd = []metricSpec{
	{"throughput_ops_s", "1/s"},
	{"latency_p50_ns", "ns"},
	{"latency_p99_ns", "ns"},
	{"allocs_per_op", "allocs/op"},
	{"setup_s", "s"},
}

var failedFrac = metricSpec{"failed_op_frac", "fraction"}

// perLayer are the metrics of a run with --trace 1. Every workload
// reports every one; a layer the workload does not reach reads 0 (see
// README.md's table for which workload each one belongs to).
var perLayer = []metricSpec{
	{"agg.batch_degree", "ops/batch"},
	{"agg.elim_pct", "%"},
	{"agg.combine_pct", "%"},
	{"agg.spin_avg", "spins"},
	{"agg.reclaim_skip_pct", "%"},
	{"agg.fastpath_hit_pct", "%"},
	{"agg.shard_resizes", "count"},
	{"stack.push_p50_ns", "ns"},
	{"stack.pop_p50_ns", "ns"},
	{"stack.pop_empty_pct", "%"},
	{"queue.enqueue_p50_ns", "ns"},
	{"queue.dequeue_p50_ns", "ns"},
	{"queue.full_miss_pct", "%"},
	{"queue.empty_miss_pct", "%"},
	{"isession.self_ns", "ns"},
	{"secclient.do_p50_ns", "ns"},
	{"secclient.do_p99_ns", "ns"},
	{"secclient.retries", "count"},
	{"secclient.redials", "count"},
	{"wire.encode_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"wire.bytes_per_op", "B/op"},
	{"socket.read_calls_per_op", "calls/op"},
	{"socket.write_calls_per_op", "calls/op"},
	{"socket.write_ns", "ns"},
	{"socket.read_wait_ns", "ns"},
	{"secd.exec_p50_ns.stack", "ns"},
	{"secd.exec_p50_ns.pool", "ns"},
	{"secd.exec_p50_ns.funnel", "ns"},
	{"secd.exec_p50_ns.all", "ns"},
	{"secd.outside_engine_pct", "%"},
	{"runtime.bytes_per_op", "B/op"},
	{"runtime.gc_per_mop", "gc/Mop"},
	{"trace.overhead_pct", "%"},
}

// runConfig is what every workload run receives.
type runConfig struct {
	seed     uint64
	seconds  time.Duration
	trace    bool
	traceDir string
	stamp    string
}

// result is one workload run's outcome.
type result struct {
	problems  []string // failed output checks; empty when correct
	attempted int64
	failed    int64
	metrics   map[string]float64
	notes     []string // extra report lines: sample counts, span summaries
}

func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workload is one named load shape.
type workload struct {
	name string
	run  func(rc runConfig) *result
}

var workloads = []workload{
	{"stack-update", runStack},
	{"queue-pc", runQueue},
	{"served-mixed", runServed},
}

// plan is one measured phase's timeline: a warmup, then n windows.
type plan struct {
	warmup, window time.Duration
	n              int32
}

// planFor splits d into windows of a tenth of a second (at least two),
// after a warmup of a fifth of d capped at a quarter second. Host steal
// comes in bursts of tens of milliseconds, so short windows leave some
// windows untouched by it.
func planFor(d time.Duration) plan {
	n := int32(max(2, int(d/(time.Second/10))))
	return plan{warmup: min(time.Second/4, d/5), window: d / time.Duration(n), n: n}
}

func (p plan) run(meters []*meter, workers []func(*meter)) phase {
	return runPhase(meters[0].clk, p.warmup, p.window, meters, workers)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: "+workloadNames()+", or all")
	seed := fs.Uint64("seed", 1, "workload seed: the op streams derive from it")
	seconds := fs.Int("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: the traced run, reporting per-layer metrics")
	traceDir := fs.String("trace-dir", ".bench_build/trace", "directory the traced run writes its spans to")
	commit := fs.String("commit", "unknown", "source commit, for the host stamp")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	var todo []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (known: %s)\n", *name, workloadNames())
		return 2
	}
	rc := runConfig{
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		traceDir: *traceDir,
	}
	rc.stamp = hostStamp(*commit, rc)
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	fmt.Fprintf(out, "# %s\n", rc.stamp)

	specs := endToEnd
	if rc.trace {
		specs = perLayer
	}
	line := resultLine{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range todo {
		r := w.run(rc)
		report(out, w.name, r, specs, rc.trace)
		line.Correct = line.Correct && len(r.problems) == 0
		line.Attempted += r.attempted
		line.Failed += r.failed
		for _, s := range specs {
			key := s.name
			if len(todo) > 1 {
				key = w.name + "." + s.name
			}
			line.Metrics[key] = metricValue{Value: r.metrics[s.name], Unit: s.unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintf(out, "%s\n", b)
	if !line.Correct {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints one workload's metrics, notes and failed checks.
func report(w io.Writer, name string, r *result, specs []metricSpec, traced bool) {
	for _, s := range specs {
		fmt.Fprintf(w, "# %-13s %-26s %16.6g %s\n", name, s.name, r.metrics[s.name], s.unit)
	}
	if !traced {
		frac := float64(r.failed) / float64(max(r.attempted, 1))
		fmt.Fprintf(w, "# %-13s %-26s %16.6g %s (%d of %d)\n", name, failedFrac.name, frac, failedFrac.unit, r.failed, r.attempted)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %-13s %s\n", name, n)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "# %-13s CHECK FAILED: %s\n", name, p)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// hostStamp records the host and the run's settings.
func hostStamp(commit string, rc runConfig) string {
	return fmt.Sprintf("host gomaxprocs=%d numcpu=%d cpu=%q go=%s os=%s/%s commit=%s seed=%d seconds=%d trace=%t",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		commit, rc.seed, int(rc.seconds/time.Second), rc.trace)
}

// cpuModel is the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// seedFor derives a worker's RNG seed from the run's seed.
func seedFor(seed uint64, worker int) uint64 {
	return seed*0x9e3779b97f4a7c15 + uint64(worker+1)*0xbf58476d1ce4e5b9
}
