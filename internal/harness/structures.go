package harness

// Degree measurement for the non-stack structures. The agg engine
// records batch occupancy and elimination rate uniformly for the
// stack, the deque and the funnel; these runners drive the deque and
// funnel with the paper's update mixes so cmd/secbench can print one
// degree table per structure. The stack's runner lives in runner.go.

import (
	"sync"
	"sync/atomic"
	"time"

	"secstack/deque"
	"secstack/funnel"
	"secstack/internal/metrics"
	"secstack/pool"
	"secstack/queue"
)

// structureOps is one worker's operation set over a generic structure:
// the mix's push and pop map to the structure's updates, peek to its
// read (the funnel's Load, the deque's Len - the only read either
// offers).
type structureOps struct {
	push func(v int64)
	pop  func()
	read func()
	done func()
}

// runStructureOnce drives cfg.Threads workers for cfg.Duration and
// returns the operation count.
func runStructureOnce(cfg Config, register func(t int) structureOps) int64 {
	var (
		stop    atomic.Bool
		started sync.WaitGroup
		done    sync.WaitGroup
		total   atomic.Int64
		gate    = make(chan struct{})
	)
	for t := 0; t < cfg.Threads; t++ {
		started.Add(1)
		done.Add(1)
		go func(t int) {
			defer done.Done()
			w := register(t)
			defer w.done()
			rng := newWorkerRNG(cfg.Seed, t)
			base := int64(t+1) << 32
			started.Done()
			<-gate
			ops := int64(0)
			for !stop.Load() {
				// As in runOnce: a small batch between stop checks keeps
				// the check off the hot path.
				for i := 0; i < 64; i++ {
					switch cfg.Workload.Pick(rng.Intn(100)) {
					case OpPush:
						w.push(base | ops)
					case OpPop:
						w.pop()
					case OpPeek:
						w.read()
					}
					ops++
				}
			}
			total.Add(ops)
		}(t)
	}
	started.Wait()
	close(gate)
	time.Sleep(cfg.Duration)
	stop.Store(true)
	done.Wait()
	return total.Load()
}

// runStructure is the multi-run wrapper shared by RunDeque and
// RunFunnel: average throughput over cfg.Runs and accumulate degree
// snapshots.
func runStructure(cfg Config, build func(cfg Config) (func(t int) structureOps, func() metrics.Snapshot)) Result {
	cfg = cfg.withDefaults()
	if err := cfg.Workload.Validate(); err != nil {
		panic(err)
	}
	res := Result{Config: cfg, PerRun: make([]float64, 0, cfg.Runs)}
	var allocs, bytes uint64
	for r := 0; r < cfg.Runs; r++ {
		am := startAllocMeter() // before construction: the builder's allocations count too
		register, snapshot := build(cfg)
		ops := runStructureOnce(cfg, register)
		da, db := am.delta()
		allocs += da
		bytes += db
		res.PerRun = append(res.PerRun, float64(ops)/cfg.Duration.Seconds()/1e6)
		res.TotalOps += ops
		res.Degrees.Accumulate(snapshot())
		res.HasDegree = true
	}
	res.Mops, res.Stddev = meanStddev(res.PerRun)
	if res.TotalOps > 0 {
		res.AllocsPerOp = float64(allocs) / float64(res.TotalOps)
		res.BytesPerOp = float64(bytes) / float64(res.TotalOps)
	}
	return res
}

// RunDeque measures an instrumented SEC-style deque under cfg's mix:
// pushes and pops split evenly across the two ends by the worker's RNG
// stream, peeks map to Len (the deque's only read operation).
func RunDeque(cfg Config) Result {
	return runStructure(cfg, func(cfg Config) (func(t int) structureOps, func() metrics.Snapshot) {
		d := deque.New[int64](deque.WithMetrics(), deque.WithMaxThreads(cfg.Threads+1))
		if cfg.Prefill > 0 {
			h := d.Register()
			for i := 0; i < cfg.Prefill; i++ {
				h.PushRight(int64(1)<<48 | int64(i))
			}
			h.Close()
		}
		register := func(t int) structureOps {
			h := d.Register()
			side := t % 2
			return structureOps{
				push: func(v int64) {
					if side == 0 {
						h.PushLeft(v)
					} else {
						h.PushRight(v)
					}
					side ^= 1
				},
				pop: func() {
					if side == 0 {
						h.PopLeft()
					} else {
						h.PopRight()
					}
					side ^= 1
				},
				read: func() { d.Len() },
				done: h.Close,
			}
		}
		return register, func() metrics.Snapshot { return d.Metrics().Snapshot() }
	})
}

// RunPool measures an instrumented pool under cfg's mix: pushes map to
// Put, pops to Get, and peeks to a borrow/return Get+Put pair - the
// pool's natural read-modify cycle, since a pool offers no read-only
// operation. Adaptivity is on (the configuration the pool's steal
// primitives are designed around), so the snapshot's put-steal columns
// are live exactly when overflow engages; the snapshot merges the
// pool-level steal counters with the shards' engine degrees.
func RunPool(cfg Config) Result { return RunPoolOpts(cfg) }

// RunPoolOpts is RunPool with extra pool options appended after the
// harness baseline, so figure drivers can measure configuration arms -
// the elastic ladder passes WithElasticShards(true) here. MaxThreads
// is sized for the workers plus the prefill handle plus the elastic
// controller's internal drain handle.
func RunPoolOpts(cfg Config, opts ...pool.Option) Result {
	return runStructure(cfg, func(cfg Config) (func(t int) structureOps, func() metrics.Snapshot) {
		base := []pool.Option{
			pool.WithMetrics(),
			pool.WithMaxThreads(cfg.Threads + 2),
			pool.WithAdaptive(true),
		}
		p := pool.New[int64](append(base, opts...)...)
		if cfg.Prefill > 0 {
			h := p.Register()
			for i := 0; i < cfg.Prefill; i++ {
				h.Put(int64(1)<<48 | int64(i))
			}
			h.Close()
		}
		register := func(t int) structureOps {
			h := p.Register()
			return structureOps{
				push: func(v int64) { h.Put(v) },
				pop:  func() { h.Get() },
				read: func() {
					if v, ok := h.Get(); ok {
						h.Put(v)
					}
				},
				done: h.Close,
			}
		}
		return register, p.Snapshot
	})
}

// queueCapacity sizes both arms of the queue-vs-channel comparison:
// comfortably above the prefill level the self-balancing mixes hover
// around, so the measured regime is the transfer path rather than
// full/empty rejection churn, and identical for the chan arm.
func queueCapacity(cfg Config) int {
	return max(1024, 2*cfg.Prefill)
}

// RunQueue measures the instrumented SEC queue under cfg's mix: pushes
// map to TryEnqueue, pops to TryDequeue (the channel-shaped
// non-blocking forms - full rejections and empty misses count as
// operations, exactly as a select/default does), peeks to Len.
// Adaptivity is on, the configuration the head-to-head against chan
// runs in.
func RunQueue(cfg Config) Result {
	return runStructure(cfg, func(cfg Config) (func(t int) structureOps, func() metrics.Snapshot) {
		q := queue.New[int64](
			queue.WithMetrics(),
			queue.WithMaxThreads(cfg.Threads+1),
			queue.WithCapacity(queueCapacity(cfg)),
			queue.WithAdaptive(true),
		)
		if cfg.Prefill > 0 {
			h := q.Register()
			for i := 0; i < cfg.Prefill; i++ {
				h.Enqueue(int64(1)<<48 | int64(i))
			}
			h.Close()
		}
		register := func(t int) structureOps {
			h := q.Register()
			return structureOps{
				push: func(v int64) { h.TryEnqueue(v) },
				pop:  func() { h.TryDequeue() },
				read: func() { q.Len() },
				done: h.Close,
			}
		}
		return register, func() metrics.Snapshot { return q.Metrics().Snapshot() }
	})
}

// RunChan measures a buffered Go channel as the queue's native
// baseline, under the same mix and the same capacity: pushes map to a
// select/default send (drop when full), pops to a select/default
// receive, peeks to len(ch) - the channel's non-blocking forms,
// matching RunQueue's op mapping. The degree snapshot is empty; a
// channel exposes no batching internals.
func RunChan(cfg Config) Result {
	return runStructure(cfg, func(cfg Config) (func(t int) structureOps, func() metrics.Snapshot) {
		ch := make(chan int64, queueCapacity(cfg))
		for i := 0; i < cfg.Prefill; i++ {
			ch <- int64(1)<<48 | int64(i)
		}
		register := func(t int) structureOps {
			return structureOps{
				push: func(v int64) {
					select {
					case ch <- v:
					default:
					}
				},
				pop: func() {
					select {
					case <-ch:
					default:
					}
				},
				read: func() { _ = len(ch) },
				done: func() {},
			}
		}
		return register, func() metrics.Snapshot { return metrics.Snapshot{} }
	})
}

// RunFunnel measures an instrumented funnel under cfg's mix: pushes map
// to FetchAdd(+1), pops to FetchAdd(-1), peeks to Load.
func RunFunnel(cfg Config) Result {
	return runStructure(cfg, func(cfg Config) (func(t int) structureOps, func() metrics.Snapshot) {
		f := funnel.New(funnel.WithMetrics(), funnel.WithMaxThreads(cfg.Threads+1))
		register := func(t int) structureOps {
			h := f.Register()
			return structureOps{
				push: func(int64) { h.FetchAdd(1) },
				pop:  func() { h.FetchAdd(-1) },
				read: func() { f.Load() },
				done: h.Close,
			}
		}
		return register, func() metrics.Snapshot { return f.Metrics().Snapshot() }
	})
}
