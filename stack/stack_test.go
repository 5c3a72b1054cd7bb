package stack_test

import (
	"fmt"
	"sync"
	"testing"

	"secstack/internal/stacktest"
	"secstack/stack"
)

// adapter lifts the generic public API onto the test-kit's int64
// interface.
type adapter struct{ s stack.Stack[int64] }

func (a adapter) Register() stacktest.Handle { return a.s.Register() }

// TestConformanceAllAlgorithms runs the full conformance suite against
// every algorithm reachable through the registry.
func TestConformanceAllAlgorithms(t *testing.T) {
	for _, alg := range stack.Algorithms() {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			stacktest.RunAll(t, func() stacktest.Stack {
				s, err := stack.New[int64](alg, stack.WithAggregators(2))
				if err != nil {
					t.Fatalf("New(%q): %v", alg, err)
				}
				return adapter{s}
			})
		})
	}
}

func TestNewUnknownAlgorithm(t *testing.T) {
	if _, err := stack.New[int](stack.Algorithm("NOPE")); err == nil {
		t.Fatal("New accepted an unknown algorithm")
	}
}

func TestDescribe(t *testing.T) {
	for _, alg := range stack.Algorithms() {
		if stack.Describe(alg) == "" {
			t.Fatalf("Describe(%q) empty", alg)
		}
	}
	if stack.Describe("NOPE") != "" {
		t.Fatal("Describe of unknown algorithm non-empty")
	}
}

// TestImplicitHandleAPI drives the handle-free Push/Pop/Peek methods
// from many goroutines on every algorithm.
func TestImplicitHandleAPI(t *testing.T) {
	for _, alg := range stack.Algorithms() {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			t.Parallel()
			s, err := stack.New[int64](alg)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					base := int64(w) << 32
					for i := int64(0); i < 500; i++ {
						s.Push(base | i)
						s.Peek()
						s.Pop()
					}
				}(w)
			}
			wg.Wait()
			// Workers pushed and popped in pairs, so a final drain must
			// terminate (residue only from pops that lost races).
			n := 0
			for {
				if _, ok := s.Pop(); !ok {
					break
				}
				n++
			}
			if n > 8*500 {
				t.Fatalf("drained %d elements, more than were pushed", n)
			}
		})
	}
}

func TestAlgorithmsOrder(t *testing.T) {
	want := []stack.Algorithm{stack.SEC, stack.TRB, stack.EB, stack.FC, stack.CC, stack.TSI}
	got := stack.Algorithms()
	if len(got) != len(want) {
		t.Fatalf("Algorithms() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Algorithms()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestSECMetricsExposed(t *testing.T) {
	s := stack.NewSEC[int](stack.WithMetrics())
	h := s.Register()
	h.Push(1)
	h.Pop()
	if s.Metrics() == nil {
		t.Fatal("Metrics() = nil with CollectMetrics set")
	}
	if snap := s.Metrics().Snapshot(); snap.Ops == 0 {
		t.Fatalf("no ops recorded: %+v", snap)
	}
	s2 := stack.NewSEC[int]()
	if s2.Metrics() != nil {
		t.Fatal("Metrics() non-nil without CollectMetrics")
	}
}

func TestSECLen(t *testing.T) {
	s := stack.NewSEC[int]()
	h := s.Register()
	for i := 0; i < 5; i++ {
		h.Push(i)
	}
	if s.Len() != 5 {
		t.Fatalf("Len = %d, want 5", s.Len())
	}
}

// TestStructValues exercises the generic API with a multi-word element
// type on every algorithm.
func TestStructValues(t *testing.T) {
	type point struct{ X, Y, Z float64 }
	for _, alg := range stack.Algorithms() {
		s, _ := stack.New[point](alg)
		h := s.Register()
		h.Push(point{1, 2, 3})
		h.Push(point{4, 5, 6})
		if v, ok := h.Pop(); !ok || v != (point{4, 5, 6}) {
			t.Fatalf("%s: Pop = (%v, %v)", alg, v, ok)
		}
		if v, ok := h.Peek(); !ok || v != (point{1, 2, 3}) {
			t.Fatalf("%s: Peek = (%v, %v)", alg, v, ok)
		}
	}
}

// TestCrossAlgorithmAgreement runs the same deterministic workload
// single-threaded on all algorithms and checks they produce identical
// results (they all implement the same abstract stack).
func TestCrossAlgorithmAgreement(t *testing.T) {
	trace := func(s stack.Stack[int64]) string {
		h := s.Register()
		out := ""
		x := int64(0)
		for i := 0; i < 500; i++ {
			switch i % 5 {
			case 0, 1, 2:
				x++
				h.Push(x)
			case 3:
				v, ok := h.Pop()
				out += fmt.Sprintf("p%d:%v ", v, ok)
			default:
				v, ok := h.Peek()
				out += fmt.Sprintf("k%d:%v ", v, ok)
			}
		}
		return out
	}
	ref := ""
	for i, alg := range stack.Algorithms() {
		s, _ := stack.New[int64](alg)
		got := trace(s)
		if i == 0 {
			ref = got
			continue
		}
		if got != ref {
			t.Fatalf("%s single-threaded trace diverges from SEC", alg)
		}
	}
}

// TestConcurrentSmokeAllAlgorithms is a short mixed workload touching
// every algorithm through the public API.
func TestConcurrentSmokeAllAlgorithms(t *testing.T) {
	for _, alg := range stack.Algorithms() {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			t.Parallel()
			s, _ := stack.New[int64](alg)
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					h := s.Register()
					for i := 0; i < 1000; i++ {
						switch i % 3 {
						case 0:
							h.Push(int64(i))
						case 1:
							h.Pop()
						default:
							h.Peek()
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}
