// Command seccheck stress-checks the concurrent stacks and the bounded
// queue: many rounds of small concurrent histories verified with the
// exhaustive linearizability checkers, plus a large
// element-conservation run per structure.
//
// Usage:
//
//	seccheck                  # check every stack algorithm and the queue briefly
//	seccheck -alg SEC -rounds 500 -threads 6
//	seccheck -alg queue       # the FIFO checks alone
//	seccheck -list            # print the algorithm registry and exit
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"

	"secstack/internal/lincheck"
	"secstack/internal/xrand"
	"secstack/queue"
	"secstack/stack"
)

func main() {
	var (
		algFlag = flag.String("alg", "", "algorithm to check (default: all)")
		rounds  = flag.Int("rounds", 100, "linearizability rounds per algorithm")
		threads = flag.Int("threads", 4, "concurrent threads per round")
		opsPer  = flag.Int("ops", 4, "operations per thread per round (keep small: the check is exponential)")
		consOps = flag.Int("conservation-ops", 200000, "per-thread operations for the conservation pass")
		list    = flag.Bool("list", false, "list the checkable algorithm registry and exit")
	)
	flag.Parse()

	// The registry printed here is the same stack.Algorithms() slice
	// that secbench -list, secd -list and the secd handshake banner
	// report, so every tool agrees on the servable set.
	if *list {
		for _, a := range stack.Algorithms() {
			fmt.Printf("%-4s %s\n", a, stack.Describe(a))
		}
		return
	}

	// "queue" is not a stack algorithm but shares the checker harness:
	// -alg queue runs the FIFO checks alone; no -alg runs them after
	// the stack registry.
	algs := stack.Algorithms()
	checkQ := true
	if *algFlag == "queue" {
		algs = nil
	} else if *algFlag != "" {
		algs = []stack.Algorithm{stack.Algorithm(*algFlag)}
		checkQ = false
		if _, err := stack.New[int64](algs[0]); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(2)
		}
	}

	failed := false
	for _, alg := range algs {
		fmt.Printf("%-4s linearizability: %d rounds x %d threads x %d ops ... ",
			alg, *rounds, *threads, *opsPer)
		if n := checkLinearizability(alg, *rounds, *threads, *opsPer); n > 0 {
			fmt.Printf("FAILED (%d non-linearizable histories)\n", n)
			failed = true
		} else {
			fmt.Println("ok")
		}

		fmt.Printf("%-4s conservation: %d threads x %d ops ... ", alg, *threads, *consOps)
		if err := checkConservation(alg, *threads, *consOps); err != nil {
			fmt.Printf("FAILED (%v)\n", err)
			failed = true
		} else {
			fmt.Println("ok")
		}
	}
	if checkQ {
		fmt.Printf("%-5s linearizability: %d rounds x %d threads x %d ops ... ",
			"queue", *rounds, *threads, *opsPer)
		if n := checkQueueLinearizability(*rounds, *threads, *opsPer); n > 0 {
			fmt.Printf("FAILED (%d non-linearizable histories)\n", n)
			failed = true
		} else {
			fmt.Println("ok")
		}
		fmt.Printf("%-5s conservation: %d threads x %d ops ... ", "queue", *threads, *consOps)
		if err := checkQueueConservation(*threads, *consOps); err != nil {
			fmt.Printf("FAILED (%v)\n", err)
			failed = true
		} else {
			fmt.Println("ok")
		}
	}
	if failed {
		os.Exit(1)
	}
}

// qCheckCapacity keeps the FIFO rounds' queues small enough that both
// full and empty observations appear in the histories.
const qCheckCapacity = 3

// checkQueueLinearizability runs `rounds` small concurrent histories
// on the bounded queue - full protocol, Try* solo CASes and the
// adaptive fast path mixed - and returns the number that fail the
// exhaustive FIFO check.
func checkQueueLinearizability(rounds, threads, opsPer int) int {
	bad := 0
	for r := 0; r < rounds; r++ {
		q := queue.New[int64](queue.WithCapacity(qCheckCapacity), queue.WithAdaptive(true))
		rec := lincheck.NewQRecorder(threads)
		var wg sync.WaitGroup
		for t := 0; t < threads; t++ {
			wg.Add(1)
			go func(t int) {
				defer wg.Done()
				h := q.Register()
				defer h.Close()
				rng := xrand.New(uint64(r)*1_000_003 + uint64(t)*7919)
				base := int64(t+1) << 32
				for i := 0; i < opsPer; i++ {
					switch rng.Intn(4) {
					case 0:
						v := base + int64(i)
						inv := rec.Begin()
						ok := h.Enqueue(v)
						rec.RecordEnqueue(t, v, ok, inv)
					case 1:
						v := base + int64(i) + (1 << 24)
						inv := rec.Begin()
						ok := h.TryEnqueue(v)
						rec.RecordEnqueue(t, v, ok, inv)
					case 2:
						inv := rec.Begin()
						v, ok := h.Dequeue()
						rec.RecordDequeue(t, v, ok, inv)
					default:
						inv := rec.Begin()
						v, ok := h.TryDequeue()
						rec.RecordDequeue(t, v, ok, inv)
					}
				}
			}(t)
		}
		wg.Wait()
		if h := rec.History(); !lincheck.CheckQueue(h, qCheckCapacity) {
			bad++
			fmt.Fprintf(os.Stderr, "\n  round %d not linearizable:\n", r)
			for _, op := range h {
				fmt.Fprintf(os.Stderr, "    %s\n", op)
			}
		}
	}
	return bad
}

// checkQueueConservation enqueues unique values from every thread -
// counting only admitted enqueues, since the bound rejects some - and
// verifies that drain(dequeued) == admitted as multisets.
func checkQueueConservation(threads, opsPer int) error {
	q := queue.New[int64](queue.WithAdaptive(true))
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		dequeued = make(map[int64]int)
		admitted = make(map[int64]bool)
	)
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			h := q.Register()
			defer h.Close()
			rng := xrand.New(uint64(t) + 99)
			localDeq := make(map[int64]int)
			localAdm := make(map[int64]bool)
			next := int64(t) << 32
			for i := 0; i < opsPer; i++ {
				if rng.Intn(2) == 0 {
					next++
					if h.TryEnqueue(next) {
						localAdm[next] = true
					}
				} else if v, ok := h.TryDequeue(); ok {
					localDeq[v]++
				}
			}
			mu.Lock()
			for v, c := range localDeq {
				dequeued[v] += c
			}
			for v := range localAdm {
				admitted[v] = true
			}
			mu.Unlock()
		}(t)
	}
	wg.Wait()
	h := q.Register()
	defer h.Close()
	for {
		v, ok := h.Dequeue()
		if !ok {
			break
		}
		dequeued[v]++
	}
	for v, c := range dequeued {
		if c != 1 {
			return fmt.Errorf("value %d dequeued %d times", v, c)
		}
		if !admitted[v] {
			return fmt.Errorf("value %d dequeued but never admitted", v)
		}
		delete(admitted, v)
	}
	if len(admitted) != 0 {
		return fmt.Errorf("%d admitted values lost", len(admitted))
	}
	return nil
}

// checkLinearizability runs `rounds` small concurrent histories and
// returns the number that fail the exhaustive stack check.
func checkLinearizability(alg stack.Algorithm, rounds, threads, opsPer int) int {
	bad := 0
	for r := 0; r < rounds; r++ {
		s, _ := stack.New[int64](alg, stack.WithAggregators(2))
		rec := lincheck.NewRecorder(threads)
		var wg sync.WaitGroup
		for t := 0; t < threads; t++ {
			wg.Add(1)
			go func(t int) {
				defer wg.Done()
				h := s.Register()
				defer h.Close()
				rng := xrand.New(uint64(r)*1_000_003 + uint64(t)*7919)
				base := int64(t+1) << 32
				for i := 0; i < opsPer; i++ {
					switch rng.Intn(4) {
					case 0, 1:
						v := base + int64(i)
						inv := rec.Begin()
						h.Push(v)
						rec.RecordPush(t, v, inv)
					case 2:
						inv := rec.Begin()
						v, ok := h.Pop()
						rec.RecordPop(t, v, ok, inv)
					default:
						inv := rec.Begin()
						v, ok := h.Peek()
						rec.RecordPeek(t, v, ok, inv)
					}
				}
			}(t)
		}
		wg.Wait()
		if h := rec.History(); !lincheck.CheckStack(h) {
			bad++
			fmt.Fprintf(os.Stderr, "\n  round %d not linearizable:\n", r)
			for _, op := range h {
				fmt.Fprintf(os.Stderr, "    %s\n", op)
			}
		}
	}
	return bad
}

// checkConservation pushes unique values from every thread and verifies
// that drain(popped) == pushed as multisets.
func checkConservation(alg stack.Algorithm, threads, opsPer int) error {
	s, _ := stack.New[int64](alg, stack.WithAggregators(2))
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		popped = make(map[int64]int)
		pushed = make(map[int64]bool)
	)
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			h := s.Register()
			defer h.Close()
			rng := xrand.New(uint64(t) + 99)
			localPop := make(map[int64]int)
			localPush := make(map[int64]bool)
			next := int64(t) << 32
			for i := 0; i < opsPer; i++ {
				if rng.Intn(2) == 0 {
					next++
					h.Push(next)
					localPush[next] = true
				} else if v, ok := h.Pop(); ok {
					localPop[v]++
				}
			}
			mu.Lock()
			for v, c := range localPop {
				popped[v] += c
			}
			for v := range localPush {
				pushed[v] = true
			}
			mu.Unlock()
		}(t)
	}
	wg.Wait()
	h := s.Register()
	defer h.Close()
	for {
		v, ok := h.Pop()
		if !ok {
			break
		}
		popped[v]++
	}
	for v, c := range popped {
		if c != 1 {
			return fmt.Errorf("value %d popped %d times", v, c)
		}
		if !pushed[v] {
			return fmt.Errorf("value %d popped but never pushed", v)
		}
		delete(pushed, v)
	}
	if len(pushed) != 0 {
		return fmt.Errorf("%d pushed values lost", len(pushed))
	}
	return nil
}
