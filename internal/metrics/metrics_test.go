package metrics

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestNilCollectorIsNoop(t *testing.T) {
	var m *SEC
	m.RecordBatch(0, 5, 3) // must not panic
	m.Reset()
	s := m.Snapshot()
	if s.Batches != 0 || s.Ops != 0 {
		t.Fatalf("nil collector snapshot = %+v, want zero", s)
	}
}

func TestRecordBatchAccounting(t *testing.T) {
	m := NewSEC(2)
	m.RecordBatch(0, 5, 3) // 8 ops, 6 eliminated, 2 combined
	m.RecordBatch(1, 2, 2) // 4 ops, 4 eliminated, 0 combined
	s := m.Snapshot()
	if s.Batches != 2 {
		t.Fatalf("Batches = %d, want 2", s.Batches)
	}
	if s.Ops != 12 {
		t.Fatalf("Ops = %d, want 12", s.Ops)
	}
	if s.Eliminated != 10 {
		t.Fatalf("Eliminated = %d, want 10", s.Eliminated)
	}
	if s.Combined != 2 {
		t.Fatalf("Combined = %d, want 2", s.Combined)
	}
}

func TestDegrees(t *testing.T) {
	m := NewSEC(1)
	m.RecordBatch(0, 10, 0) // pure-push batch: nothing eliminated
	s := m.Snapshot()
	if got := s.BatchingDegree(); got != 10 {
		t.Fatalf("BatchingDegree = %v, want 10", got)
	}
	if got := s.EliminationPct(); got != 0 {
		t.Fatalf("EliminationPct = %v, want 0", got)
	}
	if got := s.CombiningPct(); got != 100 {
		t.Fatalf("CombiningPct = %v, want 100", got)
	}
}

func TestDegreesEmptySnapshot(t *testing.T) {
	var s Snapshot
	if s.BatchingDegree() != 0 || s.EliminationPct() != 0 || s.CombiningPct() != 0 {
		t.Fatal("empty snapshot must report zero degrees, not NaN")
	}
}

func TestPercentagesSumTo100(t *testing.T) {
	f := func(pushes, pops uint8) bool {
		if pushes == 0 && pops == 0 {
			return true
		}
		m := NewSEC(1)
		m.RecordBatch(0, int(pushes), int(pops))
		s := m.Snapshot()
		return math.Abs(s.EliminationPct()+s.CombiningPct()-100) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReset(t *testing.T) {
	m := NewSEC(3)
	m.RecordBatch(2, 4, 4)
	m.Reset()
	if s := m.Snapshot(); s.Batches != 0 || s.Ops != 0 || s.Eliminated != 0 || s.Combined != 0 {
		t.Fatalf("snapshot after Reset = %+v, want zeros", s)
	}
}

func TestNewSECClampsAggregators(t *testing.T) {
	m := NewSEC(0)
	m.RecordBatch(0, 1, 1) // must not panic on index 0
}

func TestConcurrentRecording(t *testing.T) {
	const (
		shards  = 4
		workers = 8
		batches = 1000
	)
	m := NewSEC(shards)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				m.RecordBatch(w%shards, 3, 1)
			}
		}(w)
	}
	wg.Wait()
	s := m.Snapshot()
	wantBatches := int64(workers * batches)
	if s.Batches != wantBatches {
		t.Fatalf("Batches = %d, want %d", s.Batches, wantBatches)
	}
	if s.Ops != 4*wantBatches {
		t.Fatalf("Ops = %d, want %d", s.Ops, 4*wantBatches)
	}
	if s.Eliminated != 2*wantBatches {
		t.Fatalf("Eliminated = %d, want %d", s.Eliminated, 2*wantBatches)
	}
}

func BenchmarkRecordBatch(b *testing.B) {
	m := NewSEC(2)
	for i := 0; i < b.N; i++ {
		m.RecordBatch(i&1, 5, 3)
	}
}

func TestRecordBatchOccAndOccupancy(t *testing.T) {
	m := NewSEC(2)
	m.RecordBatchOcc(0, 6, 4, 8)
	m.RecordBatchOcc(1, 2, 0, 8)
	s := m.Snapshot()
	if s.Batches != 2 || s.Ops != 8 || s.Eliminated != 4 || s.Combined != 4 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.Capacity != 16 {
		t.Fatalf("Capacity = %d, want 16", s.Capacity)
	}
	if got := s.OccupancyPct(); got != 50 {
		t.Fatalf("OccupancyPct = %.1f, want 50", got)
	}
	m.Reset()
	if s := m.Snapshot(); s.Capacity != 0 {
		t.Fatalf("Capacity = %d after Reset, want 0", s.Capacity)
	}
}

func TestFastPathCounters(t *testing.T) {
	m := NewSEC(2)
	m.RecordFastPath(0, true)
	m.RecordFastPath(0, true)
	m.RecordFastPath(1, true)
	m.RecordFastPath(1, false)
	m.RecordBatchOcc(1, 1, 0, 8) // the missed op completes through a batch
	s := m.Snapshot()
	if s.FastHits != 3 || s.FastMisses != 1 {
		t.Fatalf("fast path counters = %d/%d, want 3/1", s.FastHits, s.FastMisses)
	}
	// 3 solo completions + 1 batch completion: 75% fast path.
	if got := s.FastPathPct(); got != 75 {
		t.Fatalf("FastPathPct = %.1f, want 75", got)
	}
	var acc Snapshot
	acc.Accumulate(s)
	acc.Accumulate(s)
	if acc.FastHits != 6 || acc.FastMisses != 2 {
		t.Fatalf("accumulated fast path counters = %d/%d, want 6/2", acc.FastHits, acc.FastMisses)
	}
	m.Reset()
	if s := m.Snapshot(); s.FastHits != 0 || s.FastMisses != 0 {
		t.Fatalf("fast path counters survive Reset: %+v", s)
	}
	var nilM *SEC
	nilM.RecordFastPath(0, true) // nil collector must be a no-op
	if got := nilM.Snapshot().FastPathPct(); got != 0 {
		t.Fatalf("nil collector FastPathPct = %.1f, want 0", got)
	}
}

func TestOccupancyZeroWithoutCapacity(t *testing.T) {
	m := NewSEC(1)
	m.RecordBatch(0, 3, 1) // capacity-less entry point
	if got := m.Snapshot().OccupancyPct(); got != 0 {
		t.Fatalf("OccupancyPct = %.1f without recorded capacity, want 0", got)
	}
	var nilM *SEC
	nilM.RecordBatchOcc(0, 1, 0, 4) // nil collector must be a no-op
	if got := nilM.Snapshot().OccupancyPct(); got != 0 {
		t.Fatalf("nil collector OccupancyPct = %.1f, want 0", got)
	}
}

func TestSpinAndReclaimCounters(t *testing.T) {
	m := NewSEC(2)
	m.RecordBatchOcc(0, 1, 0, 8)
	m.RecordSpin(0, 128)
	m.RecordBatchOcc(0, 1, 0, 8)
	m.RecordSpin(0, 64)
	m.RecordBatchOcc(1, 1, 0, 8)
	m.RecordSpin(1, 0)
	m.RecordReclaim(0, true)
	m.RecordReclaim(0, false)
	m.RecordReclaim(1, false)
	m.RecordReclaim(1, false)
	s := m.Snapshot()
	if s.SpinSum != 192 {
		t.Fatalf("SpinSum = %d, want 192", s.SpinSum)
	}
	if got := s.SpinAvg(); got != 64 { // 192 spins over 3 batches
		t.Fatalf("SpinAvg = %.1f, want 64", got)
	}
	if s.ReclaimScans != 1 || s.ReclaimSkips != 3 {
		t.Fatalf("reclaim counters = %d/%d, want 1/3", s.ReclaimScans, s.ReclaimSkips)
	}
	if got := s.ReclaimSkipPct(); got != 75 {
		t.Fatalf("ReclaimSkipPct = %.1f, want 75", got)
	}
	var acc Snapshot
	acc.Accumulate(s)
	acc.Accumulate(s)
	if acc.SpinSum != 384 || acc.ReclaimScans != 2 || acc.ReclaimSkips != 6 {
		t.Fatalf("accumulated spin/reclaim = %d/%d/%d, want 384/2/6", acc.SpinSum, acc.ReclaimScans, acc.ReclaimSkips)
	}
	m.Reset()
	if s := m.Snapshot(); s.SpinSum != 0 || s.ReclaimScans != 0 || s.ReclaimSkips != 0 {
		t.Fatalf("spin/reclaim counters survive Reset: %+v", s)
	}
	var nilM *SEC
	nilM.RecordSpin(0, 7) // nil collector must be a no-op
	nilM.RecordReclaim(0, true)
	if got := nilM.Snapshot().SpinAvg(); got != 0 {
		t.Fatalf("nil collector SpinAvg = %.1f, want 0", got)
	}
	if got := (Snapshot{}).ReclaimSkipPct(); got != 0 {
		t.Fatalf("empty ReclaimSkipPct = %.1f, want 0", got)
	}
}

func TestPutStealAndInheritCounters(t *testing.T) {
	m := NewSEC(3)
	m.RecordPutSteal(1, true)
	m.RecordPutSteal(1, true)
	m.RecordPutSteal(0, false)
	s := m.Snapshot()
	if s.PutStealHits != 2 || s.PutStealMisses != 1 {
		t.Fatalf("put-steal counters = %d/%d, want 2/1", s.PutStealHits, s.PutStealMisses)
	}
	if got := s.PutStealPct(); got < 66 || got > 67 {
		t.Fatalf("PutStealPct = %.2f, want ~66.7", got)
	}
	var acc Snapshot
	acc.Accumulate(s)
	acc.Accumulate(s)
	if acc.PutStealHits != 4 || acc.PutStealMisses != 2 {
		t.Fatalf("Accumulate dropped steal counters: %+v", acc)
	}
	m.Reset()
	if s := m.Snapshot(); s.PutStealHits != 0 || s.PutStealMisses != 0 {
		t.Fatalf("Reset left steal counters: %+v", s)
	}
	// Nil collectors swallow records, as everywhere else in the package.
	var nilM *SEC
	nilM.RecordPutSteal(0, true)
	if (Snapshot{}).PutStealPct() != 0 {
		t.Fatal("PutStealPct on empty snapshot not 0")
	}
}
