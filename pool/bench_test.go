package pool

import "testing"

// BenchmarkPutOverflow is the put-steal ablation (DESIGN.md §10),
// in-package because the overflow regime is forced through the loss
// counter: a home solo CAS cannot be made to lose on demand, and the
// benchmark's point is the cost of each Put regime, not of
// manufacturing contention. Three rungs, each a Put/Get cycle so node
// recycling reaches steady state:
//
//   - home_solo: the new Put fast path - one TryPush CAS on the home
//     shard (plus the Get that drains it).
//   - steal_hit: the overflow path's hit - the loss counter is at the
//     threshold, so Put sweeps and spills onto a quiet foreign shard
//     with one TryPush CAS; the Get steals it back cross-shard.
//   - full_home: the pre-overflow Put - the home shard's full batch
//     protocol on every operation (what a saturated home cost before
//     TryPush existed, and what the overflow sweep still falls back to
//     when every foreign shard is contended).
//
// All three claim 0 allocs/op with node + batch recycling on; the
// sweep's miss rung (every foreign shard contended) needs real
// parallelism and is covered for correctness by
// TestPutOverflowChurnWaves and for allocations by the engine guard in
// internal/agg.
func BenchmarkPutOverflow(b *testing.B) {
	newPool := func(opts ...Option) *Pool[int64] {
		return New[int64](append([]Option{
			WithShards(4),
			WithAdaptive(true),
			WithRecycling(),
		}, opts...)...)
	}
	warm := func(h *Handle[int64]) {
		for i := int64(0); i < 4096; i++ {
			h.Put(i)
			h.Get()
		}
	}
	b.Run("home_solo", func(b *testing.B) {
		p := newPool()
		h := p.Register()
		defer h.Close()
		warm(h)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Put(int64(i))
			h.Get()
		}
	})
	b.Run("steal_hit", func(b *testing.B) {
		p := newPool()
		h := p.Register()
		defer h.Close()
		warm(h)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.putMiss = p.overflow // home saturated: this Put overflows
			h.Put(int64(i))
			h.Get()
		}
	})
	b.Run("full_home", func(b *testing.B) {
		p := newPool(WithAdaptive(false))
		h := p.Register()
		defer h.Close()
		warm(h)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.handles[h.home].Push(int64(i)) // the seed's Put: always the full protocol
			h.Get()
		}
	})
}

// BenchmarkElasticOverhead is the elastic controller's degree-1 tax
// (DESIGN.md §13, gated at <=5% ns/op over static): identical settled
// solo Put/Get cycles, the only difference being the armed controller
// - the per-op sync() check plus one try-locked idle pass per period.
// The elastic arm runs the default period (2048) and a deliberately
// hot one (64) so the pass cost itself is visible; all arms claim
// 0 allocs/op.
func BenchmarkElasticOverhead(b *testing.B) {
	run := func(b *testing.B, opts ...Option) {
		p := New[int64](append([]Option{
			WithShards(4),
			WithAdaptive(true),
			WithRecycling(),
		}, opts...)...)
		h := p.Register()
		defer h.Close()
		for i := int64(0); i < 4096; i++ { // settle recycling and controller streaks
			h.Put(i)
			h.Get()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Put(int64(i))
			h.Get()
		}
	}
	b.Run("static", func(b *testing.B) { run(b) })
	b.Run("elastic", func(b *testing.B) { run(b, WithElasticShards(true)) })
	b.Run("elastic_hot", func(b *testing.B) { run(b, WithElasticShards(true), WithElasticPeriod(64)) })
}
