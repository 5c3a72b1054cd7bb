// BenchmarkImplicitVsHandle: the acceptance ladder for the per-P
// implicit-session layer. Three arms over the same zero-alloc SEC
// configuration (adaptive fast path + node and batch recycling):
//
//	handle   - explicit Register-ed handle per worker (the fast path
//	           the docs used to steer everyone toward)
//	implicit - the handle-free API over the per-P session cache
//	spill    - the handle-free API with affinity off (spill-pool-only
//	           borrows, the pre-affinity implementation's behavior)
//
// at fixed worker counts 1, 4 and GOMAXPROCS rather than
// b.RunParallel (which cannot pin an exact goroutine count, and the
// claim under test is per-rung: implicit within ~10% of handle at
// every contention level). Run with -benchmem: the implicit arm's
// steady state is 0 allocs/op, which TestAllocCeilingImplicitStack
// pins in CI.
package secstack_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"secstack/stack"
)

// implicitBenchDegrees is the contention ladder: solo, small-group,
// machine-wide.
func implicitBenchDegrees() []int {
	degrees := []int{1, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		degrees = append(degrees, p)
	}
	return degrees
}

// newImplicitBenchStack is the ladder's one configuration: the
// zero-alloc steady state (adaptive solo path, node + batch
// recycling) where announcement and session-lookup overheads are the
// costs left to measure.
func newImplicitBenchStack() *stack.SECStack[int64] {
	return stack.NewSEC[int64](
		stack.WithAggregators(2),
		stack.WithAdaptive(true),
		stack.WithRecycling(),
	)
}

// benchFixedWorkers splits b.N across exactly `workers` goroutines,
// each running a Push/Pop cycle via op.
func benchFixedWorkers(b *testing.B, workers int, op func(worker int, i int64)) {
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

func BenchmarkImplicitVsHandle(b *testing.B) {
	for _, degree := range implicitBenchDegrees() {
		b.Run(fmt.Sprintf("handle/deg%d", degree), func(b *testing.B) {
			s := newImplicitBenchStack()
			handles := make([]stack.Handle[int64], degree)
			for w := range handles {
				handles[w] = s.Register()
			}
			defer func() {
				for _, h := range handles {
					h.Close()
				}
			}()
			b.ReportAllocs()
			benchFixedWorkers(b, degree, func(w int, i int64) {
				h := handles[w]
				h.Push(i)
				h.Pop()
			})
		})
		b.Run(fmt.Sprintf("implicit/deg%d", degree), func(b *testing.B) {
			s := newImplicitBenchStack()
			b.ReportAllocs()
			benchFixedWorkers(b, degree, func(w int, i int64) {
				s.Push(i)
				s.Pop()
			})
		})
		b.Run(fmt.Sprintf("spill/deg%d", degree), func(b *testing.B) {
			s := stack.NewSEC[int64](
				stack.WithAggregators(2),
				stack.WithAdaptive(true),
				stack.WithRecycling(),
				stack.WithImplicitSessions(false),
			)
			b.ReportAllocs()
			benchFixedWorkers(b, degree, func(w int, i int64) {
				s.Push(i)
				s.Pop()
			})
		})
	}
}

// TestImplicitHandleRatio is the CI gate on the ladder's headline
// claim: a handle-free op must stay within 1.5x of the explicit
// handle path's ns/op at degree 1 (the target is ~1.1x; the CI bound
// leaves room for shared-runner noise). Min-of-3 on both arms
// suppresses one-off scheduling hiccups. Skipped under -short - the
// race detector's instrumentation (CI's -short tier) would make the
// timing meaningless.
func TestImplicitHandleRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("timing ratio is meaningless under -short/-race tiers")
	}
	minOf3 := func(bench func(b *testing.B)) float64 {
		best := 0.0
		for i := 0; i < 3; i++ {
			r := testing.Benchmark(bench)
			if ns := float64(r.NsPerOp()); best == 0 || ns < best {
				best = ns
			}
		}
		return best
	}
	handle := minOf3(func(b *testing.B) {
		s := newImplicitBenchStack()
		h := s.Register()
		defer h.Close()
		b.ResetTimer()
		for i := int64(0); i < int64(b.N); i++ {
			h.Push(i)
			h.Pop()
		}
	})
	implicit := minOf3(func(b *testing.B) {
		s := newImplicitBenchStack()
		b.ResetTimer()
		for i := int64(0); i < int64(b.N); i++ {
			s.Push(i)
			s.Pop()
		}
	})
	ratio := implicit / handle
	t.Logf("handle %.1f ns/op, implicit %.1f ns/op, ratio %.3f", handle, implicit, ratio)
	if ratio > 1.5 {
		t.Fatalf("implicit path is %.2fx the handle path (handle %.1f ns/op, implicit %.1f ns/op), CI bound 1.5x",
			ratio, handle, implicit)
	}
}
