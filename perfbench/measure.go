package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// clock splits one measured phase into a warmup and n equal windows.
// The driving goroutine advances epoch (0 = warmup, 1..n = windows,
// n+1 = stop); workers poll it once per operation, so a window's
// operations are those a worker completed while it read that epoch.
type clock struct {
	epoch atomic.Int32
	n     int32
	marks []mark // marks[w-1] opens window w; marks[n] closes the last
	// edge, when set, runs as the first window opens (end=false) and
	// as the last one closes (end=true), for layer counters that must
	// cover the windows only.
	edge func(end bool)
}

// mark is the state of the process and the host at a window edge.
type mark struct {
	at     time.Time
	steal  int64 // host CPU time stolen from this machine, in clock ticks (/proc/stat)
	allocs uint64
	bytes  uint64
	gcs    uint64
}

var runtimeCounters = []string{"/gc/heap/allocs:objects", "/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles"}

func takeMark(samples []metrics.Sample) mark {
	metrics.Read(samples)
	return mark{
		at:     time.Now(),
		steal:  readSteal(),
		allocs: samples[0].Value.Uint64(),
		bytes:  samples[1].Value.Uint64(),
		gcs:    samples[2].Value.Uint64(),
	}
}

// readSteal returns the machine's cumulative steal time, the CPU time
// a hypervisor gave to other guests while this one wanted it; 0 where
// /proc/stat does not report it.
func readSteal() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}

// drive runs the phase's timeline on the calling goroutine.
func (c *clock) drive(warmup, window time.Duration) {
	samples := make([]metrics.Sample, len(runtimeCounters))
	for i, name := range runtimeCounters {
		samples[i].Name = name
	}
	time.Sleep(warmup)
	if c.edge != nil {
		c.edge(false)
	}
	// Window edges are due at fixed offsets from the first: the driving
	// goroutine wakes late while the workers hold both Ps, and sleeping
	// a window's length each time would add every delay to the run.
	start := time.Now()
	for w := int32(1); w <= c.n; w++ {
		c.marks = append(c.marks, takeMark(samples))
		c.epoch.Store(w)
		time.Sleep(time.Until(start.Add(time.Duration(w) * window)))
	}
	c.marks = append(c.marks, takeMark(samples))
	if c.edge != nil {
		c.edge(true)
	}
	c.epoch.Store(c.n + 1)
}

// meter is one worker's per-window tally: completed operations and
// sampled latencies. It is owned by its worker goroutine and read only
// after the phase has joined.
type meter struct {
	_        linePad
	clk      *clock
	cur      int32
	ops      int64
	winOps   []int64 // completed ops per epoch
	lat      []int32 // sampled op latencies in ns, in completion order
	latStart []int   // latStart[w] is the first lat index of epoch w
	every    uint64  // sample one op in every; 1 samples all
	n        uint64  // ops started, for the sampling stride
	_        linePad
}

// linePad keeps the per-worker state that workers write on every op
// off the cache lines of other workers' state.
type linePad [128]byte

func newMeter(clk *clock, every uint64, latCap int) *meter {
	return &meter{
		clk:      clk,
		winOps:   make([]int64, clk.n+2),
		latStart: make([]int, clk.n+3),
		lat:      make([]int32, 0, latCap),
		every:    max(every, 1),
	}
}

// running reports whether the phase is still on, rolling the window
// tally over when the epoch has moved.
func (m *meter) running() bool {
	if e := m.clk.epoch.Load(); e != m.cur {
		m.winOps[m.cur] += m.ops
		m.ops = 0
		for w := m.cur + 1; w <= e; w++ {
			m.latStart[w] = len(m.lat)
		}
		m.cur = e
	}
	return m.cur <= m.clk.n
}

// sample reports whether the next operation's latency is to be
// recorded.
func (m *meter) sample() bool {
	m.n++
	return m.n%m.every == 0
}

// done counts one completed operation.
func (m *meter) done() { m.ops++ }

// record keeps one sampled latency.
func (m *meter) record(d time.Duration) {
	m.lat = append(m.lat, int32(min(d, time.Duration(1<<31-1))))
}

// finish closes the worker's tally once running has returned false.
func (m *meter) finish() {
	m.winOps[m.cur] += m.ops
	m.ops = 0
	for w := m.cur + 1; w < int32(len(m.latStart)); w++ {
		m.latStart[w] = len(m.lat)
	}
}

// window returns the worker's latency samples of window w.
func (m *meter) window(w int32) []int32 { return m.lat[m.latStart[w]:m.latStart[w+1]] }

// phase is one measured structure lifetime: the merged tallies of all
// its workers, window by window.
type phase struct {
	durs    []time.Duration // per window
	ops     []int64         // per window, all workers
	lat     [][]int32       // per window, all workers, sorted
	allocs  []uint64        // heap objects allocated, per window
	steal   []int64         // host steal ticks, per window
	quiet   []int           // the windows the figures are taken over
	bytes   uint64          // heap bytes allocated over all windows
	gcs     uint64          // GC cycles completed over all windows
	total   int64           // ops over all windows
	samples int             // latency samples over all windows
}

// runPhase starts one goroutine per worker, drives the clock and merges
// the workers' meters once all have returned.
func runPhase(clk *clock, warmup, window time.Duration, meters []*meter, workers []func(*meter)) phase {
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w(meters[i])
			meters[i].finish()
		}()
	}
	clk.drive(warmup, window)
	wg.Wait()
	return merge(clk, meters)
}

func merge(clk *clock, meters []*meter) phase {
	first, last := clk.marks[0], clk.marks[clk.n]
	p := phase{bytes: last.bytes - first.bytes, gcs: last.gcs - first.gcs}
	for w := int32(1); w <= clk.n; w++ {
		a, b := clk.marks[w-1], clk.marks[w]
		p.durs = append(p.durs, b.at.Sub(a.at))
		p.allocs = append(p.allocs, b.allocs-a.allocs)
		p.steal = append(p.steal, b.steal-a.steal)
		var ops int64
		var lat []int32
		for _, m := range meters {
			ops += m.winOps[w]
			lat = append(lat, m.window(w)...)
		}
		slices.Sort(lat)
		p.ops = append(p.ops, ops)
		p.lat = append(p.lat, lat)
		p.total += ops
		p.samples += len(lat)
	}
	p.quiet = quietWindows(p.steal)
	return p
}

// join pools q's windows with p's.
func (p phase) join(q phase) phase {
	p.durs = append(p.durs, q.durs...)
	p.ops = append(p.ops, q.ops...)
	p.lat = append(p.lat, q.lat...)
	p.allocs = append(p.allocs, q.allocs...)
	p.steal = append(p.steal, q.steal...)
	p.bytes += q.bytes
	p.gcs += q.gcs
	p.total += q.total
	p.samples += q.samples
	p.quiet = quietWindows(p.steal)
	return p
}

// quietShare is the share of windows, the least disturbed by other
// guests of the host, that the reported figures are taken over.
const quietShare = 0.25

// quietWindows returns the windows whose steal is at most the
// quietShare-quantile of all windows' steal, ties included; on a host
// that steals nothing that is every window.
func quietWindows(steal []int64) []int {
	sorted := slices.Clone(steal)
	slices.Sort(sorted)
	limit := sorted[int(quietShare*float64(len(sorted)-1))]
	var keep []int
	for i, s := range steal {
		if s <= limit {
			keep = append(keep, i)
		}
	}
	return keep
}

// quietIQM is the interquartile mean, the mean of the middle half, of
// f over the quiet windows where f is defined; ok is false when it is
// defined on fewer than half of them. Not a median: windows alternate
// between batching regimes whose figures differ by a third, and the
// median of such a mix jumps from one regime to the other where a mean
// moves with the mix. Not a plain mean either: a stall of a few
// milliseconds, too short to register as steal, still lowers one
// window's throughput and lifts its tail, and the trim drops such
// windows.
func (p phase) quietIQM(f func(w int) (float64, bool)) (float64, bool) {
	v := make([]float64, 0, len(p.quiet))
	for _, w := range p.quiet {
		if x, ok := f(w); ok {
			v = append(v, x)
		}
	}
	if len(v) == 0 || 2*len(v) < len(p.quiet) {
		return 0, false
	}
	slices.Sort(v)
	mid := v[len(v)/4 : len(v)-len(v)/4]
	var sum float64
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid)), true
}

// throughput is the interquartile mean over the quiet windows of
// completed ops per second.
func (p phase) throughput() float64 {
	v, _ := p.quietIQM(func(w int) (float64, bool) { return float64(p.ops[w]) / p.durs[w].Seconds(), true })
	return v
}

// latency is the interquartile mean over the quiet windows of each
// window's q-quantile. A window with fewer than minBeyond samples
// beyond its quantile, one the host stalled nearly throughout, has
// none; ok is false when more than half the quiet windows have none.
func (p phase) latency(q float64) (float64, bool) {
	return p.quietIQM(func(w int) (float64, bool) { return quantile(p.lat[w], q) })
}

// allocsPerOp is heap objects allocated per completed op over the
// quiet windows together: a window's allocations and ops vary with its
// batching, and their sums vary less than their ratios.
func (p phase) allocsPerOp() float64 {
	var allocs uint64
	var ops int64
	for _, w := range p.quiet {
		allocs += p.allocs[w]
		ops += p.ops[w]
	}
	return float64(allocs) / float64(max(ops, 1))
}

// stealShare is the share of the machine's CPU time stolen by other
// guests over the whole phase; ticks are USER_HZ, 100 a second on
// Linux.
func (p phase) stealShare() float64 {
	var ticks int64
	var d time.Duration
	for i, s := range p.steal {
		ticks += s
		d += p.durs[i]
	}
	return float64(ticks) / 100 / (d.Seconds() * float64(runtime.NumCPU()))
}

// minBeyond is the fewest samples that must lie beyond a reported
// percentile.
const minBeyond = 10

// quantile returns the q-quantile of sorted samples (nearest rank), or
// ok=false when fewer than minBeyond samples lie beyond it.
func quantile[T int32 | int64](sorted []T, q float64) (float64, bool) {
	n := len(sorted)
	idx := int(q * float64(n-1))
	if n == 0 || n-1-idx < minBeyond {
		return 0, false
	}
	return float64(sorted[idx]), true
}

// median of unsorted values; the mean of the middle two for an even
// count.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianSeconds is the median of d, in seconds.
func medianSeconds(d []time.Duration) float64 {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = x.Seconds()
	}
	return median(v)
}
