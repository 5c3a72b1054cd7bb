// Command secbench regenerates every figure and table of the paper's
// evaluation (see DESIGN.md §3 for the experiment index).
//
// Usage:
//
//	secbench -fig 2a          # Figure 2a: update mixes on the Emerald ladder
//	secbench -fig 3           # Figure 3: push-only / pop-only, Emerald
//	secbench -fig 4           # Figure 4: SEC aggregator sweep, Emerald
//	secbench -fig adaptive    # adaptivity ablation: solo fast path (+ node recycling) vs stock SEC and TRB
//	secbench -fig spin        # freezer-backoff ablation: fixed FreezerSpin ladder vs the adaptive controller
//	secbench -fig implicit    # handle-free ablation: per-P implicit sessions vs explicit handles vs spill-only
//	secbench -fig elastic     # elastic-pool ablation: static shard count vs the elastic controller, with live_shards per rung
//	secbench -fig queue       # queue head-to-head: the bounded SEC queue vs a buffered Go channel, with queue degree rows per rung
//	secbench -table 1         # Table 1: degree/occupancy tables, Emerald
//	secbench -all             # everything
//	secbench -all -paper      # paper-fidelity settings (5s x 5 runs)
//	secbench -all -quick      # fast smoke settings (100ms x 1 run)
//	secbench -fig 2a -json out/   # also write out/BENCH_fig2a.json
//	secbench -list            # print the algorithm registry and exit
//
// Figures 5-8 and Table 2 are the IceLake repeats; Figures 9-12 and
// Table 3 the Sapphire repeats. Output is text tables with the same
// rows/series the paper plots; -table additionally prints the batch
// occupancy and elimination-rate counters the agg engine records for
// the deque, funnel, pool and queue next to the paper's SEC stack degrees
// (the pool rows carry the put-steal counters of the bidirectional
// load-balancing work).
//
// With -json, each figure or table is also written as one
// machine-readable BENCH_<fig>.json document (schema secbench/v10; see
// internal/harness/json.go for the version history).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"secstack/internal/harness"
	"secstack/pool"
	"secstack/stack"
)

type settings struct {
	duration time.Duration
	runs     int
	prefill  int
	verbose  bool
	csvDir   string
	jsonDir  string
}

// emit prints the series as a text table, records it into doc (when
// -json is set), and, when -csv is set, also writes it in long-form CSV
// for external plotting.
func emit(s *harness.Series, st settings, doc *harness.BenchDoc) {
	s.WriteTo(os.Stdout)
	fmt.Println()
	if doc != nil {
		doc.AddSeries(s)
	}
	if st.csvDir == "" {
		return
	}
	f, err := os.Create(filepath.Join(st.csvDir, sanitize(s.Title)+".csv"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "csv: %v\n", err)
		return
	}
	defer f.Close()
	if err := s.WriteCSV(f); err != nil {
		fmt.Fprintf(os.Stderr, "csv: %v\n", err)
	}
}

func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		default:
			return '_'
		}
	}, name)
}

// newDoc returns a collector for one figure/table when -json is set,
// else nil.
func newDoc(st settings, fig string) *harness.BenchDoc {
	if st.jsonDir == "" {
		return nil
	}
	return harness.NewBenchDoc(fig)
}

// writeDoc emits doc as BENCH_<fig>.json into the -json directory.
func writeDoc(st settings, doc *harness.BenchDoc) {
	if doc == nil {
		return
	}
	path := filepath.Join(st.jsonDir, "BENCH_"+sanitize(doc.Fig)+".json")
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "json: %v\n", err)
		return
	}
	defer f.Close()
	if err := doc.WriteJSON(f); err != nil {
		fmt.Fprintf(os.Stderr, "json: %v\n", err)
	}
}

func main() {
	var (
		fig     = flag.String("fig", "", "figure to regenerate: 2a, 2b, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, adaptive, spin, implicit, elastic, queue")
		table   = flag.Int("table", 0, "table to regenerate: 1, 2, 3")
		all     = flag.Bool("all", false, "regenerate every figure and table")
		paper   = flag.Bool("paper", false, "paper-fidelity settings: 5s windows, 5 runs")
		quick   = flag.Bool("quick", false, "smoke settings: 100ms windows, 1 run")
		dur     = flag.Duration("duration", time.Second, "measurement window per run")
		runs    = flag.Int("runs", 3, "runs averaged per point")
		prefill = flag.Int("prefill", 1000, "elements prefilled before measuring (paper: 1000)")
		verbose = flag.Bool("v", false, "print per-point progress")
		csvDir  = flag.String("csv", "", "directory to also write long-form CSVs into")
		jsonDir = flag.String("json", "", "directory to write one machine-readable BENCH_<fig>.json per sweep into")
		latency = flag.Bool("latency", false, "print a per-algorithm latency comparison (companion measurement)")
		list    = flag.Bool("list", false, "list the benchmarked algorithm registry and exit")
	)
	flag.Parse()

	if *list {
		listAlgorithms()
		return
	}

	st := settings{duration: *dur, runs: *runs, prefill: *prefill, verbose: *verbose, csvDir: *csvDir, jsonDir: *jsonDir}
	if *paper {
		st.duration, st.runs = 5*time.Second, 5
	}
	if *quick {
		st.duration, st.runs = 100*time.Millisecond, 1
	}
	if st.jsonDir != "" {
		if err := os.MkdirAll(st.jsonDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			os.Exit(2)
		}
	}

	fmt.Printf("# secbench: GOMAXPROCS=%d, window=%v, runs=%d, prefill=%d\n",
		runtime.GOMAXPROCS(0), st.duration, st.runs, st.prefill)
	fmt.Printf("# thread counts beyond GOMAXPROCS run oversubscribed, as the paper's\n")
	fmt.Printf("# points beyond each machine's hardware threads do\n\n")

	ran := false
	if *all {
		for _, f := range []string{"2a", "2b", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12"} {
			runFig(f, st)
		}
		for _, t := range []int{1, 2, 3} {
			runTable(t, st)
		}
		ran = true
	}
	if *fig != "" {
		runFig(*fig, st)
		ran = true
	}
	if *table != 0 {
		runTable(*table, st)
		ran = true
	}
	if *latency {
		runLatency(st)
		ran = true
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

// listAlgorithms prints the stack registry, one algorithm per line, in
// registry order. The same registry backs seccheck -list and the secd
// handshake banner, so the three tools always agree on what's
// servable (stack.Algorithms is the single source of truth).
func listAlgorithms() {
	for _, a := range stack.Algorithms() {
		fmt.Printf("%-4s %s\n", a, stack.Describe(a))
	}
}

// runLatency prints per-operation latency percentiles for every
// algorithm at GOMAXPROCS and 4x GOMAXPROCS threads under the
// update-heavy mix.
func runLatency(st settings) {
	fmt.Println("# Latency under 100% updates (sampled every 16th op)")
	for _, threads := range []int{runtime.GOMAXPROCS(0), 4 * runtime.GOMAXPROCS(0)} {
		for _, alg := range stack.Algorithms() {
			l := harness.RunLatency(harness.Config{
				Label:    string(alg),
				Threads:  threads,
				Duration: st.duration,
				Prefill:  st.prefill,
				Workload: harness.Update100,
			}, harness.FactoryFor(alg, stack.WithAggregators(2)), 16)
			fmt.Println(l)
		}
		fmt.Println()
	}
}

func progress(st settings) func(string) {
	if !st.verbose {
		return nil
	}
	return func(m string) { fmt.Fprintln(os.Stderr, "  "+m) }
}

// algColumns builds the six-algorithm column set of Figures 2/3.
func algColumns() ([]string, func(string) harness.Factory) {
	cols := make([]string, 0, 6)
	for _, a := range stack.Algorithms() {
		cols = append(cols, string(a))
	}
	return cols, func(col string) harness.Factory {
		return harness.FactoryFor(stack.Algorithm(col), stack.WithAggregators(2))
	}
}

// aggColumns builds the SEC_Agg1..5 column set of Figure 4.
func aggColumns() ([]string, func(string) harness.Factory) {
	cols := []string{"SEC_Agg1", "SEC_Agg2", "SEC_Agg3", "SEC_Agg4", "SEC_Agg5"}
	return cols, func(col string) harness.Factory {
		aggs := int(col[len(col)-1] - '0')
		return harness.FactoryFor(stack.SEC, stack.WithAggregators(aggs))
	}
}

func runFig(fig string, st settings) {
	name := "fig" + fig
	switch fig {
	case "adaptive", "spin", "implicit", "elastic", "queue":
		// The ablations are not paper figures; their JSON documents are
		// named after the ablation itself (BENCH_implicit.json, ...).
		name = fig
	}
	doc := newDoc(st, name)
	switch fig {
	case "2a":
		figUpdates("Figure 2a", harness.Emerald, st, doc)
	case "2b", "5":
		figUpdates("Figure "+fig, harness.IceLake, st, doc)
	case "9":
		figUpdates("Figure 9", harness.Sapphire, st, doc)
	case "3":
		figOneSided("Figure 3", harness.Emerald, st, doc)
	case "6":
		figOneSided("Figure 6", harness.IceLake, st, doc)
	case "10":
		figOneSided("Figure 10", harness.Sapphire, st, doc)
	case "4":
		figAggSweep("Figure 4", harness.Emerald, append(harness.UpdateWorkloads(), harness.PushOnly), st, doc)
	case "7":
		figAggSweep("Figure 7", harness.IceLake, harness.UpdateWorkloads(), st, doc)
	case "8":
		figAggSweep("Figure 8", harness.IceLake, []harness.Workload{harness.PushOnly, harness.PopOnly}, st, doc)
	case "11":
		figAggSweep("Figure 11", harness.Sapphire, harness.UpdateWorkloads(), st, doc)
	case "12":
		figAggSweep("Figure 12", harness.Sapphire, []harness.Workload{harness.PushOnly, harness.PopOnly}, st, doc)
	case "adaptive":
		figAdaptive("Adaptivity", harness.Emerald, st, doc)
	case "spin":
		figSpin("Spin", harness.Emerald, st, doc)
	case "implicit":
		figImplicit("Implicit", st, doc)
	case "elastic":
		figElastic("Elastic", st, doc)
	case "queue":
		figQueue("Queue", st, doc)
	default:
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", fig)
		os.Exit(2)
	}
	writeDoc(st, doc)
}

// figUpdates renders one Figure 2/5/9-style panel set: throughput under
// the three update mixes across the machine's thread ladder.
func figUpdates(title string, m harness.Machine, st settings, doc *harness.BenchDoc) {
	cols, factory := algColumns()
	for _, wl := range harness.UpdateWorkloads() {
		s := harness.Sweep(fmt.Sprintf("%s %s, %s", title, m.Name, wl.Name), harness.SweepOptions{
			Columns:  cols,
			Factory:  factory,
			Ladder:   m.Ladder,
			Workload: wl,
			Duration: st.duration,
			Prefill:  st.prefill,
			Runs:     st.runs,
			Progress: progress(st),
		})
		emit(s, st, doc)
	}
}

// figOneSided renders a Figure 3/6/10-style panel pair: push-only and
// pop-only throughput. Pop-only uses a deep prefill so pops mostly hit
// a non-empty stack.
func figOneSided(title string, m harness.Machine, st settings, doc *harness.BenchDoc) {
	cols, factory := algColumns()
	for _, wl := range []harness.Workload{harness.PushOnly, harness.PopOnly} {
		drain := wl.Name == harness.PopOnly.Name
		prefill := st.prefill
		if drain {
			// Pop-only runs in drain mode: a deep prefill is popped dry
			// and throughput is successful pops over elapsed time (a
			// timed run over a small prefill mostly measures empty
			// pops).
			prefill = 1 << 20
		}
		s := harness.Sweep(fmt.Sprintf("%s %s, %s", title, m.Name, wl.Name), harness.SweepOptions{
			Columns:  cols,
			Factory:  factory,
			Ladder:   m.Ladder,
			Workload: wl,
			Duration: st.duration,
			Prefill:  prefill,
			Runs:     st.runs,
			Drain:    drain,
			Progress: progress(st),
		})
		emit(s, st, doc)
	}
}

// figAggSweep renders a Figure 4/7/8/11/12-style panel set: SEC with
// one to five aggregators.
func figAggSweep(title string, m harness.Machine, workloads []harness.Workload, st settings, doc *harness.BenchDoc) {
	cols, factory := aggColumns()
	for _, wl := range workloads {
		drain := wl.Name == harness.PopOnly.Name
		prefill := st.prefill
		if drain {
			prefill = 1 << 20
		}
		s := harness.Sweep(fmt.Sprintf("%s %s, %s", title, m.Name, wl.Name), harness.SweepOptions{
			Columns:  cols,
			Factory:  factory,
			Ladder:   m.Ladder,
			Workload: wl,
			Duration: st.duration,
			Prefill:  prefill,
			Runs:     st.runs,
			Drain:    drain,
			Progress: progress(st),
		})
		emit(s, st, doc)
	}
}

// figAdaptive renders the contention-adaptivity ablation (not a paper
// figure; see DESIGN.md §8): stock SEC against SEC with the solo fast
// path, the same with node recycling stacked on top (SEC_adapt_rec;
// every SEC column recycles its frozen batches), and the Treiber
// baseline the fast path degenerates to, across the update mixes. The low-thread rungs are where adaptivity must close the gap
// to TRB; the high rungs are where it must not cost anything.
func figAdaptive(title string, m harness.Machine, st settings, doc *harness.BenchDoc) {
	cols := []string{"SEC", "SEC_adapt", "SEC_adapt_rec", "TRB"}
	factory := func(col string) harness.Factory {
		switch col {
		case "SEC_adapt":
			return harness.FactoryFor(stack.SEC, stack.WithAggregators(2), stack.WithAdaptive(true))
		case "SEC_adapt_rec":
			return harness.FactoryFor(stack.SEC, stack.WithAggregators(2), stack.WithAdaptive(true),
				stack.WithRecycling())
		default:
			return harness.FactoryFor(stack.Algorithm(col), stack.WithAggregators(2))
		}
	}
	for _, wl := range harness.UpdateWorkloads() {
		s := harness.Sweep(fmt.Sprintf("%s %s, %s", title, m.Name, wl.Name), harness.SweepOptions{
			Columns:  cols,
			Factory:  factory,
			Ladder:   m.Ladder,
			Workload: wl,
			Duration: st.duration,
			Prefill:  st.prefill,
			Runs:     st.runs,
			Progress: progress(st),
		})
		emit(s, st, doc)
	}
}

// figSpin renders the freezer-backoff ablation (not a paper figure;
// see DESIGN.md §9): SEC across a ladder of fixed FreezerSpin settings
// against the adaptive controller (whose ceiling is the ladder's top
// rung), on the update mixes. The claim under test: adaptive spin
// tracks the best fixed setting at both low and high degree - decaying
// to ~0 when batches freeze near-empty, growing toward the ceiling
// when the backoff buys batch degree - while the worst fixed setting
// pays for one regime in the other.
func figSpin(title string, m harness.Machine, st settings, doc *harness.BenchDoc) {
	const ceiling = 2048 // the ladder's top rung and the controller's bound
	cols := []string{"SEC_spin0", "SEC_spin32", "SEC_spin128", "SEC_spin512", "SEC_spin2048", "SEC_adaptspin"}
	factory := func(col string) harness.Factory {
		if col == "SEC_adaptspin" {
			return harness.FactoryFor(stack.SEC, stack.WithAggregators(2),
				stack.WithFreezerSpin(ceiling), stack.WithAdaptiveSpin(true))
		}
		spin := 0
		fmt.Sscanf(col, "SEC_spin%d", &spin)
		return harness.FactoryFor(stack.SEC, stack.WithAggregators(2), stack.WithFreezerSpin(spin))
	}
	for _, wl := range harness.UpdateWorkloads() {
		s := harness.Sweep(fmt.Sprintf("%s %s, %s", title, m.Name, wl.Name), harness.SweepOptions{
			Columns:  cols,
			Factory:  factory,
			Ladder:   m.Ladder,
			Workload: wl,
			Duration: st.duration,
			Prefill:  st.prefill,
			Runs:     st.runs,
			Progress: progress(st),
		})
		emit(s, st, doc)
	}
}

// figImplicit renders the handle-free ablation (not a paper figure;
// see DESIGN.md §12): the same zero-alloc SEC configuration (adaptive
// fast path, node recycling) measured three ways over a short
// contention ladder -
//
//	SEC_handle   - per-worker explicit handles, the baseline every
//	               other figure uses
//	SEC_implicit - the handle-free API over the per-P session cache
//	SEC_spill    - the handle-free API with affinity off (spill-pool
//	               borrows only, the pre-affinity implementation)
//
// Each arm is its own sweep/series so the secbench/v7 per-series
// implicit flag stays honest in the JSON export. The ladder is the
// contention ladder of BenchmarkImplicitVsHandle (solo, small group,
// machine-wide, oversubscribed) rather than a paper machine ladder:
// the claim under test is per-rung overhead of the session lookup,
// not scaling shape.
func figImplicit(title string, st settings, doc *harness.BenchDoc) {
	ladder := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		ladder = append(ladder, p)
	}
	if over := 4 * runtime.GOMAXPROCS(0); over > ladder[len(ladder)-1] {
		ladder = append(ladder, over)
	}
	zeroAlloc := []stack.Option{
		stack.WithAggregators(2),
		stack.WithAdaptive(true),
		stack.WithRecycling(),
	}
	arms := []struct {
		col      string
		implicit bool
		opts     []stack.Option
	}{
		{"SEC_handle", false, zeroAlloc},
		{"SEC_implicit", true, zeroAlloc},
		{"SEC_spill", true, append(append([]stack.Option{}, zeroAlloc...), stack.WithImplicitSessions(false))},
	}
	for _, arm := range arms {
		factory := harness.FactoryFor(stack.SEC, arm.opts...)
		s := harness.Sweep(fmt.Sprintf("%s %s, %s", title, arm.col, harness.Update100.Name), harness.SweepOptions{
			Columns:  []string{arm.col},
			Factory:  func(string) harness.Factory { return factory },
			Ladder:   ladder,
			Workload: harness.Update100,
			Duration: st.duration,
			Prefill:  st.prefill,
			Runs:     st.runs,
			Implicit: arm.implicit,
			Progress: progress(st),
		})
		emit(s, st, doc)
	}
}

// figElastic renders the elastic-pool ablation: the static default
// shard count against the same pool with the elastic controller
// enabled, over the implicit ablation's contention ladder (solo, small
// group, machine-wide, oversubscribed) under 100% updates. The elastic
// arm additionally emits one degree row per rung whose live_shards
// gauge (the widest window the rung reached) and grow/shrink/migration
// counters show the controller moving in both directions: shrunk to
// one shard at degree 1, widened under the saturating rungs.
func figElastic(title string, st settings, doc *harness.BenchDoc) {
	ladder := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		ladder = append(ladder, p)
	}
	if over := 4 * runtime.GOMAXPROCS(0); over > ladder[len(ladder)-1] {
		ladder = append(ladder, over)
	}
	// Rungs past the live window's session budget (16 sessions per
	// live shard), so the load-gauge grow signal fires organically
	// even on hosts too small for steal-miss pressure: 24 sessions
	// carry one live shard to two, 40 carry two to three.
	for _, over := range []int{24, 40} {
		if over > ladder[len(ladder)-1] {
			ladder = append(ladder, over)
		}
	}
	arms := []struct {
		col  string
		opts []pool.Option
	}{
		{"pool_static", nil},
		// A short controller period relative to the measurement window,
		// so the trajectory is visible even under -quick runs.
		{"pool_elastic", []pool.Option{pool.WithElasticShards(true), pool.WithElasticPeriod(512)}},
	}
	var rows []harness.DegreeRow
	for _, arm := range arms {
		s := harness.NewSeries(fmt.Sprintf("%s %s, %s", title, arm.col, harness.Update100.Name), []string{arm.col})
		for _, threads := range ladder {
			cfg := harness.Config{
				Label:    arm.col,
				Threads:  threads,
				Duration: st.duration,
				Prefill:  st.prefill,
				Workload: harness.Update100,
				Runs:     st.runs,
			}
			r := harness.RunPoolOpts(cfg, arm.opts...)
			s.Add(arm.col, r)
			if pr := progress(st); pr != nil {
				pr(fmt.Sprintf("%s %s threads=%d: %.2f Mops/s live=%d", title, arm.col, threads, r.Mops, r.Degrees.LiveShards))
			}
			if len(arm.opts) > 0 {
				rows = append(rows, harness.DegreeRowFrom(fmt.Sprintf("t=%d", threads), r.Degrees))
			}
		}
		emit(s, st, doc)
	}
	tbl := "Elastic pool trajectory (elastic arm, per rung)"
	fmt.Println(harness.DegreeTable(tbl, rows))
	if doc != nil {
		doc.AddTable(tbl, "pool", rows)
	}
}

// figQueue renders the queue head-to-head (not a paper figure; see
// DESIGN.md §15): the bounded SEC queue - adaptive fast path and batch
// recycling on, driven through the channel-shaped TryEnqueue /
// TryDequeue forms - against a buffered Go channel of the same
// capacity driven through select/default, over the implicit ablation's
// contention ladder (solo, small group, machine-wide, oversubscribed)
// under the update mixes. The queue arm additionally emits one degree
// row per 100%-update rung, showing how much batching the combiners
// see at each degree; the chan arm has no internals to report.
func figQueue(title string, st settings, doc *harness.BenchDoc) {
	ladder := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		ladder = append(ladder, p)
	}
	if over := 4 * runtime.GOMAXPROCS(0); over > ladder[len(ladder)-1] {
		ladder = append(ladder, over)
	}
	arms := []struct {
		col string
		run func(cfg harness.Config) harness.Result
	}{
		{"sec_queue", harness.RunQueue},
		{"chan", harness.RunChan},
	}
	var rows []harness.DegreeRow
	for _, wl := range harness.UpdateWorkloads() {
		for _, arm := range arms {
			s := harness.NewSeries(fmt.Sprintf("%s %s, %s", title, arm.col, wl.Name), []string{arm.col})
			for _, threads := range ladder {
				cfg := harness.Config{
					Label:    arm.col,
					Threads:  threads,
					Duration: st.duration,
					Prefill:  st.prefill,
					Workload: wl,
					Runs:     st.runs,
				}
				r := arm.run(cfg)
				s.Add(arm.col, r)
				if pr := progress(st); pr != nil {
					pr(fmt.Sprintf("%s %s %s threads=%d: %.2f Mops/s", title, arm.col, wl.Name, threads, r.Mops))
				}
				if arm.col == "sec_queue" && wl.Name == harness.Update100.Name {
					rows = append(rows, harness.DegreeRowFrom(fmt.Sprintf("t=%d", threads), r.Degrees))
				}
			}
			emit(s, st, doc)
		}
	}
	tbl := "Queue degrees (sec_queue arm, 100% updates, per rung)"
	fmt.Println(harness.DegreeTable(tbl, rows))
	if doc != nil {
		doc.AddTable(tbl, "queue", rows)
	}
}

// runTable renders a Table 1/2/3-style degree table set - batching
// degree, %elimination, %combining and %occupancy per update mix,
// averaged across the machine's thread ladder as the paper does - for
// each of the batch-protocol structures: the SEC stack (the paper's
// Tables 1-3), the deque, the funnel and the queue (whose degree
// counters the shared agg engine records identically), and the pool
// (whose rows add the put-steal hit/miss and spin-inheritance
// counters).
func runTable(n int, st settings) {
	var m harness.Machine
	switch n {
	case 1:
		m = harness.Emerald
	case 2:
		m = harness.IceLake
	case 3:
		m = harness.Sapphire
	default:
		fmt.Fprintf(os.Stderr, "unknown table %d\n", n)
		os.Exit(2)
	}
	doc := newDoc(st, fmt.Sprintf("table%d", n))

	structures := []struct {
		name string
		run  func(cfg harness.Config) harness.Result
	}{
		{"stack", func(cfg harness.Config) harness.Result {
			return harness.Run(cfg, harness.FactoryFor(stack.SEC, stack.WithAggregators(2), stack.WithMetrics()))
		}},
		{"deque", harness.RunDeque},
		{"funnel", harness.RunFunnel},
		{"pool", harness.RunPool},
		{"queue", harness.RunQueue},
	}
	for _, sc := range structures {
		rows := make([]harness.DegreeRow, 0, 3)
		for _, wl := range harness.UpdateWorkloads() {
			var agg harness.Result
			for _, threads := range m.Ladder {
				r := sc.run(harness.Config{
					Label:    sc.name,
					Threads:  threads,
					Duration: st.duration,
					Prefill:  st.prefill,
					Workload: wl,
					Runs:     st.runs,
				})
				agg.Degrees.Accumulate(r.Degrees)
				if st.verbose {
					fmt.Fprintf(os.Stderr, "  table %d %s %s threads=%d: degree=%.1f elim=%.0f%% occ=%.0f%%\n",
						n, sc.name, wl.Name, threads, r.Degrees.BatchingDegree(),
						r.Degrees.EliminationPct(), r.Degrees.OccupancyPct())
				}
			}
			rows = append(rows, harness.DegreeRowFrom(wl.Name, agg.Degrees))
		}
		title := fmt.Sprintf("Table %d (%s): %s degrees", n, m.Name, sc.name)
		fmt.Println(harness.DegreeTable(title, rows))
		if doc != nil {
			doc.AddTable(title, sc.name, rows)
		}
	}
	writeDoc(st, doc)
}
