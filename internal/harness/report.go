package harness

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"secstack/internal/metrics"
)

// Series is one figure's worth of results: throughput per (column
// label, thread count). Columns are algorithm labels for Figure 2/3
// style plots, or aggregator labels (SEC_Agg1..) for Figure 4 style.
type Series struct {
	Title   string
	Columns []string
	// Cells[threads][column] = result
	Cells map[int]map[string]Result

	// Implicit records that every point in the series was measured
	// through the handle-free API (Config.Implicit); the secbench/v6
	// JSON schema carries it so implicit and explicit series of the
	// same figure stay distinguishable after export.
	Implicit bool
}

// NewSeries returns an empty series with the given column order.
func NewSeries(title string, columns []string) *Series {
	return &Series{Title: title, Columns: columns, Cells: make(map[int]map[string]Result)}
}

// Add records one measurement point.
func (s *Series) Add(column string, r Result) {
	row := s.Cells[r.Threads]
	if row == nil {
		row = make(map[string]Result)
		s.Cells[r.Threads] = row
	}
	row[column] = r
}

// Threads returns the sorted thread counts present in the series.
func (s *Series) Threads() []int {
	out := make([]int, 0, len(s.Cells))
	for t := range s.Cells {
		out = append(out, t)
	}
	sort.Ints(out)
	return out
}

// WriteTo renders the series as a text table in the layout of the
// paper's figures: one row per thread count, one column per algorithm,
// cells in million operations per second.
func (s *Series) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s (Mops/s)\n", s.Title)
	fmt.Fprintf(&b, "%8s", "threads")
	for _, c := range s.Columns {
		fmt.Fprintf(&b, " %10s", c)
	}
	b.WriteByte('\n')
	for _, t := range s.Threads() {
		fmt.Fprintf(&b, "%8d", t)
		for _, c := range s.Columns {
			if r, ok := s.Cells[t][c]; ok {
				fmt.Fprintf(&b, " %10.2f", r.Mops)
			} else {
				fmt.Fprintf(&b, " %10s", "-")
			}
		}
		b.WriteByte('\n')
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// Winner returns, for each thread count, the column with the highest
// throughput - the "who wins" shape EXPERIMENTS.md records.
func (s *Series) Winner() map[int]string {
	out := make(map[int]string, len(s.Cells))
	for t, row := range s.Cells {
		best, bestV := "", -1.0
		for _, c := range s.Columns {
			if r, ok := row[c]; ok && r.Mops > bestV {
				best, bestV = c, r.Mops
			}
		}
		out[t] = best
	}
	return out
}

// SpeedupOver reports column a's throughput divided by column b's at
// the given thread count (0 when either is missing).
func (s *Series) SpeedupOver(a, b string, threads int) float64 {
	row := s.Cells[threads]
	ra, oka := row[a]
	rb, okb := row[b]
	if !oka || !okb || rb.Mops == 0 {
		return 0
	}
	return ra.Mops / rb.Mops
}

// DegreeRow is one column of the paper's Tables 1-3 for one workload,
// extended with the batch-occupancy rate the agg engine records
// uniformly for every structure.
type DegreeRow struct {
	Workload       string  `json:"workload"`
	BatchingDegree float64 `json:"batching_degree"`
	EliminationPct float64 `json:"elimination_pct"`
	CombiningPct   float64 `json:"combining_pct"`
	OccupancyPct   float64 `json:"occupancy_pct"`
	FastPathPct    float64 `json:"fastpath_pct"`
	SpinAvg        float64 `json:"spin_avg"`
	ReclaimScans   int64   `json:"reclaim_scans"`
	ReclaimSkips   int64   `json:"reclaim_skips"`
	PutStealHits   int64   `json:"put_steal_hits"`
	PutStealMisses int64   `json:"put_steal_misses"`
	GetStealHits   int64   `json:"get_steal_hits"`
	GetStealMisses int64   `json:"get_steal_misses"`
	LiveShards     int     `json:"live_shards"`
	ShardGrows     int64   `json:"shard_grows"`
	ShardShrinks   int64   `json:"shard_shrinks"`
	Migrated       int64   `json:"migrated"`
}

// DegreeRowFrom fills a row from a degree snapshot.
func DegreeRowFrom(workload string, s metrics.Snapshot) DegreeRow {
	return DegreeRow{
		Workload:       workload,
		BatchingDegree: s.BatchingDegree(),
		EliminationPct: s.EliminationPct(),
		CombiningPct:   s.CombiningPct(),
		OccupancyPct:   s.OccupancyPct(),
		FastPathPct:    s.FastPathPct(),
		SpinAvg:        s.SpinAvg(),
		ReclaimScans:   s.ReclaimScans,
		ReclaimSkips:   s.ReclaimSkips,
		PutStealHits:   s.PutStealHits,
		PutStealMisses: s.PutStealMisses,
		GetStealHits:   s.GetStealHits,
		GetStealMisses: s.GetStealMisses,
		LiveShards:     s.LiveShards,
		ShardGrows:     s.ShardGrows,
		ShardShrinks:   s.ShardShrinks,
		Migrated:       s.Migrated,
	}
}

// DegreeTable renders rows in the layout of the paper's Table 1, plus
// the occupancy row.
func DegreeTable(title string, rows []DegreeRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", title)
	fmt.Fprintf(&b, "%-18s", "Workload->")
	for _, r := range rows {
		fmt.Fprintf(&b, " %10s", r.Workload)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-18s", "Batching Degree")
	for _, r := range rows {
		fmt.Fprintf(&b, " %10.1f", r.BatchingDegree)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-18s", "%Elimination")
	for _, r := range rows {
		fmt.Fprintf(&b, " %9.0f%%", r.EliminationPct)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-18s", "%Combining")
	for _, r := range rows {
		fmt.Fprintf(&b, " %9.0f%%", r.CombiningPct)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-18s", "%Occupancy")
	for _, r := range rows {
		fmt.Fprintf(&b, " %9.0f%%", r.OccupancyPct)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-18s", "%FastPath")
	for _, r := range rows {
		fmt.Fprintf(&b, " %9.0f%%", r.FastPathPct)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-18s", "SpinAvg")
	for _, r := range rows {
		fmt.Fprintf(&b, " %10.1f", r.SpinAvg)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-18s", "ReclaimScan/Skip")
	for _, r := range rows {
		fmt.Fprintf(&b, " %10s", fmt.Sprintf("%d/%d", r.ReclaimScans, r.ReclaimSkips))
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-18s", "PutSteal hit/miss")
	for _, r := range rows {
		fmt.Fprintf(&b, " %10s", fmt.Sprintf("%d/%d", r.PutStealHits, r.PutStealMisses))
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-18s", "GetSteal hit/miss")
	for _, r := range rows {
		fmt.Fprintf(&b, " %10s", fmt.Sprintf("%d/%d", r.GetStealHits, r.GetStealMisses))
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-18s", "LiveShards")
	for _, r := range rows {
		fmt.Fprintf(&b, " %10d", r.LiveShards)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-18s", "Grow/Shrink")
	for _, r := range rows {
		fmt.Fprintf(&b, " %10s", fmt.Sprintf("%d/%d", r.ShardGrows, r.ShardShrinks))
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-18s", "Migrated")
	for _, r := range rows {
		fmt.Fprintf(&b, " %10d", r.Migrated)
	}
	b.WriteByte('\n')
	return b.String()
}

// SweepOptions drives a full figure-style sweep.
type SweepOptions struct {
	Columns  []string                 // column labels, in order
	Factory  func(col string) Factory // stack factory per column
	Ladder   []int
	Workload Workload
	Duration time.Duration
	Prefill  int
	Runs     int
	Drain    bool             // drain mode (see Config.Drain)
	Implicit bool             // handle-free measurement (see Config.Implicit)
	Progress func(msg string) // optional progress callback
}

// Sweep measures every (column, thread) point and returns the series.
func Sweep(title string, o SweepOptions) *Series {
	s := NewSeries(title, o.Columns)
	s.Implicit = o.Implicit
	for _, threads := range o.Ladder {
		for _, col := range o.Columns {
			cfg := Config{
				Label:    col,
				Threads:  threads,
				Duration: o.Duration,
				Prefill:  o.Prefill,
				Workload: o.Workload,
				Runs:     o.Runs,
				Drain:    o.Drain,
				Implicit: o.Implicit,
			}
			r := Run(cfg, o.Factory(col))
			s.Add(col, r)
			if o.Progress != nil {
				o.Progress(fmt.Sprintf("%s %s threads=%d: %.2f Mops/s", title, col, threads, r.Mops))
			}
		}
	}
	return s
}
