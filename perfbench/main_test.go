package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"secstack/internal/wire"
)

var (
	metricName  = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNames checks every metric's name and unit against the
// allowed patterns and against BENCHMARK.json at the repository root.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range slices.Concat(endToEnd, perLayer, []metricSpec{failedFrac}) {
		if !metricName.MatchString(s.name) {
			t.Errorf("metric name %q does not match %v", s.name, metricName)
		}
		if !unitPattern.MatchString(s.unit) {
			t.Errorf("metric %s: unit %q does not match %v", s.name, s.unit, unitPattern)
		}
		if seen[s.name] {
			t.Errorf("metric name %q used twice", s.name)
		}
		seen[s.name] = true
	}

	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("parsing BENCHMARK.json: %v", err)
	}
	declared := func(specs []struct{ Name, Unit string }) []metricSpec {
		out := make([]metricSpec, len(specs))
		for i, s := range specs {
			out[i] = metricSpec{s.Name, s.Unit}
		}
		return out
	}
	if got := declared(doc.EndToEnd); !slices.Equal(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, the benchmark emits %v", got, endToEnd)
	}
	if got := declared(doc.PerLayer); !slices.Equal(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, the benchmark emits %v", got, perLayer)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, ", "); got != workloadNames() {
		t.Errorf("BENCHMARK.json workloads %s, the benchmark runs %s", got, workloadNames())
	}
}

// runLine runs the benchmark with args and returns its exit code,
// report and parsed result line.
func runLine(t *testing.T, args ...string) (int, string, resultLine) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(append(args, "--trace-dir", t.TempDir()), &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line %q is not a result: %v (stderr %s)", lines[len(lines)-1], err, errOut.String())
	}
	return code, out.String(), line
}

// TestEveryWorkloadEmitsEveryMetric runs each workload briefly, untraced
// and traced, and checks the result line carries exactly the declared
// metrics with their units and the report prints each by name.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			code, report, line := runLine(t, "--workload", w.name, "--seconds", "4", "--seed", "7", "--trace", trace)
			if (code != 0 || !line.Correct) && !raceEnabled {
				t.Errorf("%s trace=%s: exit %d, correct %v:\n%s", w.name, trace, code, line.Correct, report)
			}
			if line.Attempted < 1 {
				t.Errorf("%s trace=%s: attempted %d", w.name, trace, line.Attempted)
			}
			specs := endToEnd
			printed := append(slices.Clone(endToEnd), failedFrac)
			if trace == "1" {
				specs, printed = perLayer, perLayer
			}
			if len(line.Metrics) != len(specs) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w.name, trace, len(line.Metrics), len(specs))
			}
			for _, s := range specs {
				if m, ok := line.Metrics[s.name]; !ok || m.Unit != s.unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %s", w.name, trace, s.name, m, s.unit)
				}
			}
			for _, s := range printed {
				if !regexp.MustCompile(`(?m)^# ` + regexp.QuoteMeta(w.name) + ` +` + regexp.QuoteMeta(s.name) + ` +\S+ ` + regexp.QuoteMeta(s.unit)).MatchString(report) {
					t.Errorf("%s trace=%s: report does not print %s with unit %s", w.name, trace, s.name, s.unit)
				}
			}
			if trace == "0" && (line.Metrics["throughput_ops_s"].Value <= 0 || line.Metrics["setup_s"].Value <= 0) {
				t.Errorf("%s: throughput or setup time not measured: %+v", w.name, line.Metrics)
			}
		}
	}
}

// TestFailedCheckExitsNonzero swaps in a workload whose check fails:
// the result line still prints, with correct false, and the exit code
// is 1.
func TestFailedCheckExitsNonzero(t *testing.T) {
	saved := workloads
	defer func() { workloads = saved }()
	workloads = []workload{{"broken", func(runConfig) *result {
		r := &result{attempted: 1, metrics: map[string]float64{}}
		r.fail("deliberately broken")
		return r
	}}}
	code, report, line := runLine(t, "--workload", "broken", "--seconds", "1")
	if code != 1 || line.Correct {
		t.Errorf("exit %d, correct %v; want 1, false", code, line.Correct)
	}
	if !strings.Contains(report, "CHECK FAILED: deliberately broken") {
		t.Errorf("report does not name the failed check:\n%s", report)
	}
}

// TestQuantileNeedsTenBeyond checks a percentile is reported only when
// at least minBeyond samples lie beyond it.
func TestQuantileNeedsTenBeyond(t *testing.T) {
	for n := 0; n <= 3000; n++ {
		sorted := make([]int64, n)
		for i := range sorted {
			sorted[i] = int64(i)
		}
		for _, q := range []float64{0.5, 0.99} {
			v, ok := quantile(sorted, q)
			nearest := int(q * float64(n-1))
			beyond := n - 1 - nearest
			if ok != (n > 0 && beyond >= minBeyond) {
				t.Fatalf("n=%d q=%v: ok=%v with %d samples beyond", n, q, ok, beyond)
			}
			if ok && int(v) != nearest {
				t.Fatalf("n=%d q=%v: got %v, want %d", n, q, v, nearest)
			}
		}
	}
	if _, ok := quantile(make([]int64, 500), 0.99); ok {
		t.Error("p99 of 500 samples has at most 5 beyond it but was reported")
	}
	if _, ok := quantile(make([]int64, 2000), 0.99); !ok {
		t.Error("p99 of 2000 samples has 20 beyond it but was not reported")
	}

	ph := phase{lat: [][]int32{make([]int32, 2000), make([]int32, 500), make([]int32, 500)}, quiet: []int{0, 1, 2}}
	if _, ok := ph.latency(0.99); ok {
		t.Error("two windows of three with 500 samples yielded a p99")
	}
	if _, ok := ph.latency(0.5); !ok {
		t.Error("windows of 2000 and 500 samples yielded no p50")
	}
	ph.quiet = []int{0, 1}
	if _, ok := ph.latency(0.99); !ok {
		t.Error("one window of two with a p99 yielded none")
	}
}

// stackHistory is a small valid stack history: producer 0 pushed 3
// values, producer 1 pushed 2; two consumers popped three of them
// during the run and the drain found the other two.
func stackHistory() (pushed []int64, logs []*popLog, drain *popLog, finalLen int) {
	a, b, d := newPopLog(2), newPopLog(2), newPopLog(2)
	a.take(stackValue(0, 0))
	a.take(stackValue(0, 1))
	b.take(stackValue(1, 0))
	d.take(stackValue(0, 2))
	d.take(stackValue(1, 1))
	return []int64{3, 2}, []*popLog{a, b}, d, 2
}

func TestConservationRejectsCorruptHistories(t *testing.T) {
	if err := checkConservation(stackHistory()); err != nil {
		t.Fatalf("valid history rejected: %v", err)
	}
	corrupt := map[string]func(pushed []int64, logs []*popLog, drain *popLog, finalLen *int){
		"popped by two consumers": func(_ []int64, logs []*popLog, _ *popLog, _ *int) { logs[1].take(stackValue(0, 1)) },
		"popped twice by one":     func(_ []int64, logs []*popLog, _ *popLog, _ *int) { logs[0].take(stackValue(0, 1)) },
		"never pushed":            func(_ []int64, logs []*popLog, _ *popLog, _ *int) { logs[1].take(stackValue(1, 5)) },
		"unknown producer":        func(_ []int64, logs []*popLog, _ *popLog, _ *int) { logs[1].take(stackValue(7, 0)) },
		"lost value":              func(pushed []int64, _ []*popLog, _ *popLog, _ *int) { pushed[1]++ },
		"final length off":        func(_ []int64, _ []*popLog, _ *popLog, n *int) { *n-- },
		"drain short": func(_ []int64, _ []*popLog, drain *popLog, _ *int) {
			drain.taken[1] = bitset{}
			drain.pops--
		},
	}
	for name, f := range corrupt {
		pushed, logs, drain, n := stackHistory()
		f(pushed, logs, drain, &n)
		if err := checkConservation(pushed, logs, drain, n); err == nil {
			t.Errorf("%s: corrupt history accepted", name)
		}
	}
}

func TestFIFORejectsCorruptHistories(t *testing.T) {
	feed := func(vs ...int64) *fifoLog {
		f := newFIFOLog()
		for _, v := range vs {
			f.take(v)
		}
		return f
	}
	if err := feed(1, 2, 3, 4).check(4); err != nil {
		t.Fatalf("valid history rejected: %v", err)
	}
	for name, c := range map[string]struct {
		f        *fifoLog
		produced int64
	}{
		"gap":       {feed(1, 2, 4), 4},
		"repeat":    {feed(1, 2, 2, 3), 3},
		"reordered": {feed(2, 1, 3), 3},
		"lost tail": {feed(1, 2), 3},
		"phantom":   {feed(1, 2, 3), 2},
	} {
		if err := c.f.check(c.produced); err == nil {
			t.Errorf("%s: corrupt history accepted", name)
		}
	}
}

// servedHistory is a small valid served history: one push, one empty
// pop, one contended and one applied funnel try-add, one add.
func servedHistory() servedEnd {
	l := &servedLog{}
	l.reply(wire.OpStackPush, 5, wire.Reply{Status: wire.StatusOK}, nil)
	l.reply(wire.OpPoolGet, 0, wire.Reply{Status: wire.StatusEmpty}, nil)
	l.reply(wire.OpFunnelTryAdd, 3, wire.Reply{Status: wire.StatusContended}, nil)
	l.reply(wire.OpFunnelTryAdd, 4, wire.Reply{Status: wire.StatusOK}, nil)
	l.reply(wire.OpFunnelAdd, 6, wire.Reply{Status: wire.StatusOK}, nil)
	return servedEnd{logs: []*servedLog{l}, funnel: 10, serverOps: 5}
}

func TestServedRejectsCorruptHistories(t *testing.T) {
	if err := servedHistory().check(); err != nil {
		t.Fatalf("valid history rejected: %v", err)
	}
	corrupt := map[string]func(e *servedEnd){
		"illegal status":     func(e *servedEnd) { e.logs[0].reply(wire.OpStackPush, 1, wire.Reply{Status: wire.StatusEmpty}, nil) },
		"busy reply":         func(e *servedEnd) { e.logs[0].reply(wire.OpPoolPut, 1, wire.Reply{Status: wire.StatusBusy}, nil) },
		"lost op":            func(e *servedEnd) { e.logs[0].reply(wire.OpStackPop, 0, wire.Reply{}, errors.New("lost")) },
		"retried":            func(e *servedEnd) { e.retries = 1 },
		"funnel mismatch":    func(e *servedEnd) { e.funnel++ },
		"server op mismatch": func(e *servedEnd) { e.serverOps-- },
		"shutdown error":     func(e *servedEnd) { e.shutdownErr = errors.New("drain timed out, force-closed 1 connections") },
		"session leaked":     func(e *servedEnd) { e.sessionsAfter = 1 },
	}
	for name, f := range corrupt {
		e := servedHistory()
		f(&e)
		if err := e.check(); err == nil {
			t.Errorf("%s: corrupt history accepted", name)
		}
	}
}

// TestSelfTimes checks a span's self time excludes its children's
// cover, overlapping children counted once.
func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{start: 0, end: 100, parent: -1, name: spOp},
		{start: 10, end: 40, parent: 0, name: spClientDo},
		{start: 30, end: 50, parent: 0, name: spWireEncode},
		{start: 90, end: 120, parent: 0, name: spWireDecode},
	}}
	self := selfTimes([]*tracer{tr})
	if got := self[spOp]; len(got) != 1 || got[0] != 100-40-10 {
		t.Errorf("root self time %v, want [50]", got)
	}
	if got := self[spClientDo]; len(got) != 1 || got[0] != 30 {
		t.Errorf("leaf self time %v, want [30]", got)
	}
}

// TestQuietWindows checks the figures are taken over the quarter of
// windows with the least steal, ties included.
func TestQuietWindows(t *testing.T) {
	if got := quietWindows([]int64{5, 0, 3, 0, 9, 0, 0, 2}); !slices.Equal(got, []int{1, 3, 5, 6}) {
		t.Errorf("quiet windows %v, want [1 3 5 6]", got)
	}
	if got := quietWindows([]int64{4, 1, 3, 2, 8, 6, 7, 5}); !slices.Equal(got, []int{1, 3}) {
		t.Errorf("quiet windows %v, want [1 3]", got)
	}
	if got := quietWindows(make([]int64, 6)); len(got) != 6 {
		t.Errorf("a host without steal kept %d of 6 windows", len(got))
	}
}
