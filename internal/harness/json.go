package harness

// Machine-readable benchmark output. cmd/secbench's -json flag writes
// one BENCH_<fig>.json document per sweep so the perf trajectory stays
// comparable across PRs without re-parsing text tables.

import (
	"encoding/json"
	"io"
)

// Schema identifies the JSON layout. v2 added allocs_op/bytes_op to
// every point (the allocation trajectory the batch-recycling work is
// measured by) and fastpath_pct to degree rows. v3 added
// spin_avg/reclaim_scans/reclaim_skips to degree rows (the adaptive
// freezer backoff and reclaim-epoch trajectories). v4 added
// put_steal_hits/put_steal_misses/spin_inherits to degree rows (the
// pool's bidirectional load balancing and the shard-scaling
// inheritance trajectory) and the pool structure to the degree tables.
// v5 added get_steal_hits/get_steal_misses to degree rows (the Get
// steal sweep's mirror of the Put-overflow counters, so the tables
// show both balancing directions) and the p50_us/p99_us point fields
// that served-throughput sweeps (cmd/secload driving a live secd)
// emit. v6 added the per-series implicit flag: true when every point
// of the series was measured through the handle-free API (the per-P
// implicit-session layer) rather than per-worker explicit handles.
// v7 added live_shards/shard_grows/shard_shrinks/migrated to degree
// rows: the elastic pool controller's live-window gauge (the widest
// window the rung reached) and its resize/drain-migration counters.
// v8 added retried/lost to served points: the client retry machinery's
// replayed-attempt count and the operations abandoned with the retry
// budget exhausted (the chaos smoke's zero-acked-loss invariant is
// lost == 0 under fault injection).
// v9 added the queue structure: the bounded MPMC FIFO joins the degree
// tables, and the queue-vs-channel head-to-head (`-fig queue`) emits a
// chan-arm series whose degree snapshot is empty (a channel exposes no
// batching internals).
// v10 dropped spin_inherits from degree rows (the engine's aggregator
// count is fixed, so there is no shard-scaling grow to count).
const Schema = "secbench/v10"

// BenchDoc is the top-level JSON document for one figure or table: its
// sweeps' throughput series and/or its degree tables.
type BenchDoc struct {
	Schema string       `json:"schema"` // see Schema
	Fig    string       `json:"fig"`    // e.g. "fig2a", "table1"
	Series []SeriesJSON `json:"series,omitempty"`
	Tables []TableJSON  `json:"tables,omitempty"`
}

// SeriesJSON is one throughput sweep in long form.
type SeriesJSON struct {
	Title    string      `json:"title"`
	Workload string      `json:"workload,omitempty"`
	Columns  []string    `json:"columns"`
	Implicit bool        `json:"implicit"` // handle-free measurement (schema v6)
	Points   []PointJSON `json:"points"`
}

// PointJSON is one measurement point of a sweep.
type PointJSON struct {
	Column      string  `json:"column"`
	Threads     int     `json:"threads"`
	Mops        float64 `json:"mops"`
	Stddev      float64 `json:"stddev"`
	Runs        int     `json:"runs"`
	AllocsPerOp float64 `json:"allocs_op"`
	BytesPerOp  float64 `json:"bytes_op"`

	// P50Micros and P99Micros carry client-observed round-trip latency
	// for served-throughput points (cmd/secload); zero - and omitted -
	// for in-process sweeps, whose per-op latency is the reciprocal of
	// throughput rather than a measured distribution.
	P50Micros float64 `json:"p50_us,omitempty"`
	P99Micros float64 `json:"p99_us,omitempty"`

	// Retried and Lost carry the client retry machinery's tallies for
	// served points driven through secclient (schema v8): attempts
	// replayed after a connection loss or timeout, and operations
	// abandoned with the retry budget exhausted. Zero - and omitted -
	// for in-process sweeps and fault-free runs.
	Retried int64 `json:"retried,omitempty"`
	Lost    int64 `json:"lost,omitempty"`
}

// TableJSON is one structure's degree table (occupancy, elimination
// rate, batching degree per workload).
type TableJSON struct {
	Title     string      `json:"title"`
	Structure string      `json:"structure"` // "stack", "deque", "funnel", "pool"
	Rows      []DegreeRow `json:"rows"`
}

// NewBenchDoc returns an empty document for the named figure or table.
func NewBenchDoc(fig string) *BenchDoc {
	return &BenchDoc{Schema: Schema, Fig: fig}
}

// AddSeries appends a sweep's series to the document.
func (d *BenchDoc) AddSeries(s *Series) {
	out := SeriesJSON{Title: s.Title, Columns: s.Columns, Implicit: s.Implicit}
	for _, t := range s.Threads() {
		for _, c := range s.Columns {
			r, ok := s.Cells[t][c]
			if !ok {
				continue
			}
			if out.Workload == "" {
				out.Workload = r.Workload.Name
			}
			out.Points = append(out.Points, PointJSON{
				Column:      c,
				Threads:     t,
				Mops:        r.Mops,
				Stddev:      r.Stddev,
				Runs:        r.Runs,
				AllocsPerOp: r.AllocsPerOp,
				BytesPerOp:  r.BytesPerOp,
			})
		}
	}
	d.Series = append(d.Series, out)
}

// AddTable appends one structure's degree table to the document.
func (d *BenchDoc) AddTable(title, structure string, rows []DegreeRow) {
	d.Tables = append(d.Tables, TableJSON{Title: title, Structure: structure, Rows: rows})
}

// WriteJSON renders the document, indented for diffability.
func (d *BenchDoc) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}
