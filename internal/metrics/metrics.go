// Package metrics provides the low-overhead instrumentation counters
// behind the paper's Tables 1–3 (batching degree, %eliminated,
// %combined). Counters are cache-line-padded and sharded per aggregator
// so that instrumented runs perturb throughput as little as possible;
// instrumentation is opt-in in the SEC constructor.
package metrics

import (
	"sync/atomic"

	"secstack/internal/pad"
)

// shard is one padded counter block. Batches, eliminated operations and
// combined operations are tallied by whichever thread closes out a
// batch, so a shard sees updates only from the threads of one
// aggregator.
type shard struct {
	batches      atomic.Int64 // batches frozen
	ops          atomic.Int64 // operations that belonged to frozen batches
	eliminated   atomic.Int64 // operations eliminated in-batch
	combined     atomic.Int64 // operations applied to the shared stack
	capacity     atomic.Int64 // summed op capacity of frozen batches
	fastHits     atomic.Int64 // solo fast-path operations applied directly
	fastMisses   atomic.Int64 // solo fast-path attempts that hit contention
	spinSum      atomic.Int64 // summed effective pre-freeze spin of frozen batches
	reclaimScans atomic.Int64 // freezes that ran a full hazard scan
	reclaimSkips atomic.Int64 // freezes that deferred one under the reclaim epoch
	putStealHits atomic.Int64 // overflow Puts that landed on a foreign shard via TryPush
	putStealMiss atomic.Int64 // overflow sweeps that found every foreign shard contended
	getStealHits atomic.Int64 // Gets that stole an element from a foreign shard via TryPop
	getStealMiss atomic.Int64 // steal sweeps that hit only contention and escalated
	shardGrows   atomic.Int64 // elastic grows that turned this shard live
	shardShrinks atomic.Int64 // elastic shrinks that began draining this shard
	migrated     atomic.Int64 // elements drained off this shard during shrink
	_            [3*pad.CacheLine - 17*8]byte
}

// SEC aggregates per-aggregator statistics for a SEC stack instance.
// A nil *SEC is valid and turns every method into a no-op, which is how
// uninstrumented stacks avoid the overhead entirely.
type SEC struct {
	shards []shard
}

// NewSEC returns a collector with one shard per aggregator.
func NewSEC(aggregators int) *SEC {
	if aggregators < 1 {
		aggregators = 1
	}
	return &SEC{shards: make([]shard, aggregators)}
}

// record is the single tally path every Record* entry point funnels
// through.
func (m *SEC) record(agg, ops, eliminated, capacity int) {
	if m == nil {
		return
	}
	s := &m.shards[agg]
	s.batches.Add(1)
	s.ops.Add(int64(ops))
	s.eliminated.Add(int64(eliminated))
	s.combined.Add(int64(ops - eliminated))
	s.capacity.Add(int64(capacity))
}

// RecordBatch tallies one frozen batch of aggregator agg containing
// pushes+pops operations, of which eliminated were eliminated in-batch
// and the remainder applied to the shared stack by a combiner.
func (m *SEC) RecordBatch(agg, pushes, pops int) {
	m.record(agg, pushes+pops, 2*min(pushes, pops), 0)
}

// RecordBatchRaw tallies one frozen batch of aggregator agg with the
// operation and eliminated-operation counts already computed by the
// caller (used by ablation variants whose elimination count differs
// from 2*min(pushes, pops)).
func (m *SEC) RecordBatchRaw(agg, ops, eliminated int) {
	m.record(agg, ops, eliminated, 0)
}

// RecordBatchOcc is RecordBatchRaw plus the frozen batch's operation
// capacity (slot capacity summed over its announcement sides), from
// which Snapshot derives batch occupancy. The agg engine records every
// frozen batch through this entry point for all structures.
func (m *SEC) RecordBatchOcc(agg, ops, eliminated, capacity int) {
	m.record(agg, ops, eliminated, capacity)
}

// RecordSpin tallies the effective pre-freeze backoff one frozen batch
// of aggregator agg actually paid, in spin iterations. With a fixed
// FreezerSpin every batch records the same value; under adaptive spin
// the running average (Snapshot.SpinAvg) shows where the controller
// settled.
func (m *SEC) RecordSpin(agg, spin int) {
	if m == nil {
		return
	}
	m.shards[agg].spinSum.Add(int64(spin))
}

// RecordReclaim tallies one freeze's reclamation decision on aggregator
// agg: scanned=true is a full hazard-slot scan, scanned=false a freeze
// that deferred one under the reclaim epoch (the pre-epoch engine
// would have scanned). skips/(scans+skips) is the amortization rate
// the epoch buys.
func (m *SEC) RecordReclaim(agg int, scanned bool) {
	if m == nil {
		return
	}
	if scanned {
		m.shards[agg].reclaimScans.Add(1)
	} else {
		m.shards[agg].reclaimSkips.Add(1)
	}
}

// RecordPutSteal tallies one Put-overflow outcome: hit=true is a Put
// that spilled onto foreign shard agg through the TryPush steal
// primitive after its home shard's solo CAS kept losing; hit=false is
// an overflow sweep that found every foreign shard contended too and
// fell back to the home shard's full batch protocol (recorded against
// the home shard). The pool is the only caller; the ratio shows how
// often an overloaded home shard actually found spare capacity
// elsewhere.
func (m *SEC) RecordPutSteal(agg int, hit bool) {
	if m == nil {
		return
	}
	if hit {
		m.shards[agg].putStealHits.Add(1)
	} else {
		m.shards[agg].putStealMiss.Add(1)
	}
}

// RecordGetSteal tallies one Get steal-sweep outcome - the mirror of
// RecordPutSteal, so the degree tables show both balancing directions.
// hit=true is a Get whose home shard came up empty and that stole an
// element from foreign shard agg through the TryPop steal primitive;
// hit=false is a sweep that found no element but hit contention on
// some shard and escalated to the full batch protocol (recorded
// against the home shard). Sweeps that observed every shard
// uncontendedly empty record nothing: an empty pool is an answer, not
// a balancing failure. The pool is the only caller.
func (m *SEC) RecordGetSteal(agg int, hit bool) {
	if m == nil {
		return
	}
	if hit {
		m.shards[agg].getStealHits.Add(1)
	} else {
		m.shards[agg].getStealMiss.Add(1)
	}
}

// RecordResize tallies one elastic pool resize against shard agg:
// grow=true is a grow that turned shard agg live (it rejoins the
// homing window), grow=false a shrink that began draining it. The pool
// is the only caller.
func (m *SEC) RecordResize(agg int, grow bool) {
	if m == nil {
		return
	}
	if grow {
		m.shards[agg].shardGrows.Add(1)
	} else {
		m.shards[agg].shardShrinks.Add(1)
	}
}

// RecordMigrate tallies n elements drained off retiring shard agg by
// the elastic controller's TryPop migration sweep. The pool is the
// only caller.
func (m *SEC) RecordMigrate(agg, n int) {
	if m == nil || n == 0 {
		return
	}
	m.shards[agg].migrated.Add(int64(n))
}

// RecordFastPath tallies one solo fast-path attempt of aggregator agg:
// a hit applied the operation directly (bypassing the batch protocol
// entirely - such operations never appear in Ops), a miss detected
// contention and fell back to the full protocol (where the operation
// is eventually counted through a frozen batch).
func (m *SEC) RecordFastPath(agg int, hit bool) {
	if m == nil {
		return
	}
	if hit {
		m.shards[agg].fastHits.Add(1)
	} else {
		m.shards[agg].fastMisses.Add(1)
	}
}

// Snapshot is a point-in-time view of the collected statistics,
// aggregated over all shards.
type Snapshot struct {
	Batches        int64
	Ops            int64
	Eliminated     int64
	Combined       int64
	Capacity       int64
	FastHits       int64
	FastMisses     int64
	SpinSum        int64
	ReclaimScans   int64
	ReclaimSkips   int64
	PutStealHits   int64
	PutStealMisses int64
	GetStealHits   int64
	GetStealMisses int64
	ShardGrows     int64
	ShardShrinks   int64
	Migrated       int64

	// SpinInherits is always 0: the engine runs a fixed aggregator
	// count, so no shard is ever seeded from the others. Kept so
	// readers that sum it still compile.
	SpinInherits int64

	// LiveShards is the pool's live shard window size at snapshot time
	// (0 for non-pool snapshots). Unlike the counters it is a gauge:
	// Accumulate keeps the maximum rather than the sum, so a ladder
	// rung's merged snapshot reports the widest window the run reached.
	LiveShards int
}

// Accumulate adds other's counters into s, for callers aggregating
// snapshots across runs or thread-ladder rungs.
func (s *Snapshot) Accumulate(other Snapshot) {
	s.Batches += other.Batches
	s.Ops += other.Ops
	s.Eliminated += other.Eliminated
	s.Combined += other.Combined
	s.Capacity += other.Capacity
	s.FastHits += other.FastHits
	s.FastMisses += other.FastMisses
	s.SpinSum += other.SpinSum
	s.ReclaimScans += other.ReclaimScans
	s.ReclaimSkips += other.ReclaimSkips
	s.PutStealHits += other.PutStealHits
	s.PutStealMisses += other.PutStealMisses
	s.GetStealHits += other.GetStealHits
	s.GetStealMisses += other.GetStealMisses
	s.ShardGrows += other.ShardGrows
	s.ShardShrinks += other.ShardShrinks
	s.Migrated += other.Migrated
	s.LiveShards = max(s.LiveShards, other.LiveShards)
}

// Snapshot sums all shards. It is safe to call concurrently with
// RecordBatch; the result is approximate while a run is in flight and
// exact once workers have stopped.
func (m *SEC) Snapshot() Snapshot {
	var out Snapshot
	if m == nil {
		return out
	}
	for i := range m.shards {
		s := &m.shards[i]
		out.Batches += s.batches.Load()
		out.Ops += s.ops.Load()
		out.Eliminated += s.eliminated.Load()
		out.Combined += s.combined.Load()
		out.Capacity += s.capacity.Load()
		out.FastHits += s.fastHits.Load()
		out.FastMisses += s.fastMisses.Load()
		out.SpinSum += s.spinSum.Load()
		out.ReclaimScans += s.reclaimScans.Load()
		out.ReclaimSkips += s.reclaimSkips.Load()
		out.PutStealHits += s.putStealHits.Load()
		out.PutStealMisses += s.putStealMiss.Load()
		out.GetStealHits += s.getStealHits.Load()
		out.GetStealMisses += s.getStealMiss.Load()
		out.ShardGrows += s.shardGrows.Load()
		out.ShardShrinks += s.shardShrinks.Load()
		out.Migrated += s.migrated.Load()
	}
	return out
}

// Reset zeroes all shards.
func (m *SEC) Reset() {
	if m == nil {
		return
	}
	for i := range m.shards {
		s := &m.shards[i]
		s.batches.Store(0)
		s.ops.Store(0)
		s.eliminated.Store(0)
		s.combined.Store(0)
		s.capacity.Store(0)
		s.fastHits.Store(0)
		s.fastMisses.Store(0)
		s.spinSum.Store(0)
		s.reclaimScans.Store(0)
		s.reclaimSkips.Store(0)
		s.putStealHits.Store(0)
		s.putStealMiss.Store(0)
		s.getStealHits.Store(0)
		s.getStealMiss.Store(0)
		s.shardGrows.Store(0)
		s.shardShrinks.Store(0)
		s.migrated.Store(0)
	}
}

// BatchingDegree is the average number of operations per frozen batch
// (the paper's "batching degree"). Zero if no batches were recorded.
func (s Snapshot) BatchingDegree() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.Ops) / float64(s.Batches)
}

// EliminationPct is the percentage of batch operations eliminated
// in-batch (the paper's "%elimination"). Zero if no operations.
func (s Snapshot) EliminationPct() float64 {
	if s.Ops == 0 {
		return 0
	}
	return 100 * float64(s.Eliminated) / float64(s.Ops)
}

// CombiningPct is the percentage of batch operations applied to the
// shared stack (the paper's "%combining"); by construction
// EliminationPct + CombiningPct = 100 when Ops > 0.
func (s Snapshot) CombiningPct() float64 {
	if s.Ops == 0 {
		return 0
	}
	return 100 * float64(s.Combined) / float64(s.Ops)
}

// OccupancyPct is how full frozen batches ran relative to their sized
// capacity, in percent. Zero when no capacity was recorded (counters
// fed only through the capacity-less entry points).
func (s Snapshot) OccupancyPct() float64 {
	if s.Capacity == 0 {
		return 0
	}
	return 100 * float64(s.Ops) / float64(s.Capacity)
}

// SpinAvg is the mean effective pre-freeze backoff per frozen batch,
// in spin iterations - the fixed FreezerSpin for a stock engine, the
// controller's running average under adaptive spin. Zero when no
// batches were recorded.
func (s Snapshot) SpinAvg() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.SpinSum) / float64(s.Batches)
}

// ReclaimSkipPct is the percentage of reclaim decisions the epoch
// deferred: skips / (scans + skips), i.e. how much of the pre-epoch
// engine's hazard-scan traffic the amortization removed. Zero when
// reclamation never ran (recycling off, or free list never dry).
func (s Snapshot) ReclaimSkipPct() float64 {
	total := s.ReclaimScans + s.ReclaimSkips
	if total == 0 {
		return 0
	}
	return 100 * float64(s.ReclaimSkips) / float64(total)
}

// PutStealPct is the percentage of Put-overflow sweeps that landed on
// a foreign shard: hits / (hits + misses). Zero when overflow never
// engaged (home solo CASes kept winning, or the threshold was never
// reached).
func (s Snapshot) PutStealPct() float64 {
	total := s.PutStealHits + s.PutStealMisses
	if total == 0 {
		return 0
	}
	return 100 * float64(s.PutStealHits) / float64(total)
}

// GetStealPct is the percentage of Get steal sweeps that landed on a
// foreign shard: hits / (hits + misses) - the get-side mirror of
// PutStealPct. Zero when no sweep ever stole or escalated (home shards
// kept answering, or every sweep observed an uncontendedly empty
// pool).
func (s Snapshot) GetStealPct() float64 {
	total := s.GetStealHits + s.GetStealMisses
	if total == 0 {
		return 0
	}
	return 100 * float64(s.GetStealHits) / float64(total)
}

// FastPathPct is the percentage of completed operations that the solo
// fast path applied directly, out of all operations that completed
// through either path (fast hits plus batch-protocol ops; misses are
// attempts, not completions - a missed operation completes through a
// batch and is counted in Ops). Zero when nothing completed.
func (s Snapshot) FastPathPct() float64 {
	total := s.FastHits + s.Ops
	if total == 0 {
		return 0
	}
	return 100 * float64(s.FastHits) / float64(total)
}
