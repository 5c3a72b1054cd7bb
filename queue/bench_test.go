package queue_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"secstack/queue"
)

// benchDegrees is the worker ladder both arms of the head-to-head run
// at. On a 1-CPU host the rungs above 1 measure scheduling pressure,
// not parallelism; see EXPERIMENTS.md.
func benchDegrees() []int {
	degs := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		degs = append(degs, p)
	}
	return degs
}

// benchWorkers runs op b.N/workers times on each of `workers`
// goroutines (fixed-worker ladder, not b.RunParallel, so the degree is
// exact).
func benchWorkers(b *testing.B, workers int, op func(worker int, i int64)) {
	b.Helper()
	per := b.N / workers
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int64(0); i < int64(per); i++ {
				op(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkQueueVsChannel is the head-to-head the channel-shaped API
// exists for: each worker performs an enqueue-then-dequeue round trip
// (self-balancing - the queue hovers near its prefill level, so
// neither full nor empty dominates) against the SEC queue and against
// a buffered chan of the same capacity. The queue arms retry Try*
// misses; the chan arm's buffered send/recv never block at this
// occupancy.
func BenchmarkQueueVsChannel(b *testing.B) {
	const capacity = 1024
	for _, deg := range benchDegrees() {
		b.Run(fmt.Sprintf("queue/deg%d", deg), func(b *testing.B) {
			q := queue.New[int64](
				queue.WithCapacity(capacity),
				queue.WithAdaptive(true),
			)
			handles := make([]*queue.Handle[int64], deg)
			for w := range handles {
				handles[w] = q.Register()
			}
			defer func() {
				for _, h := range handles {
					h.Close()
				}
			}()
			b.ReportAllocs()
			benchWorkers(b, deg, func(w int, i int64) {
				h := handles[w]
				for !h.TryEnqueue(i) {
				}
				for {
					if _, ok := h.TryDequeue(); ok {
						break
					}
				}
			})
		})
		b.Run(fmt.Sprintf("queue-implicit/deg%d", deg), func(b *testing.B) {
			q := queue.New[int64](
				queue.WithCapacity(capacity),
				queue.WithAdaptive(true),
			)
			b.ReportAllocs()
			benchWorkers(b, deg, func(w int, i int64) {
				for !q.TryEnqueue(i) {
				}
				for {
					if _, ok := q.TryDequeue(); ok {
						break
					}
				}
			})
		})
		b.Run(fmt.Sprintf("chan/deg%d", deg), func(b *testing.B) {
			ch := make(chan int64, capacity)
			b.ReportAllocs()
			benchWorkers(b, deg, func(w int, i int64) {
				ch <- i
				<-ch
			})
		})
	}
}

// BenchmarkQueueTryMiss prices the failure shapes the alloc guards pin
// at zero: a TryDequeue against a permanently empty queue and a
// TryEnqueue against a permanently full one.
func BenchmarkQueueTryMiss(b *testing.B) {
	b.Run("dequeue-empty", func(b *testing.B) {
		q := queue.New[int64](queue.WithAdaptive(true))
		h := q.Register()
		defer h.Close()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.TryDequeue()
		}
	})
	b.Run("enqueue-full", func(b *testing.B) {
		q := queue.New[int64](queue.WithCapacity(8),
			queue.WithAdaptive(true))
		h := q.Register()
		defer h.Close()
		for i := int64(0); i < 8; i++ {
			h.Enqueue(i)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.TryEnqueue(9)
		}
	})
}
