// Handle-lifecycle churn tests: the acceptance gate for Close-based
// slot recycling. Each test drives 4x MaxThreads handle registrations
// through waves of short-lived goroutines - the ephemeral-goroutine
// regime the fixed-thread-set seed could not survive (Register used to
// panic at the MaxThreads-th lifetime registration) - and checks both
// that registration never fails and that no element is lost or
// duplicated across handle generations. Run with -race; the free-list
// handoff between a closing and a registering goroutine is exactly the
// kind of publication these tests exist to check.
package secstack_test

import (
	"sync"
	"testing"

	"secstack/deque"
	"secstack/funnel"
	"secstack/pool"
	"secstack/stack"
)

// churn lifecycle parameters: maxThreads live handles per wave, and
// enough waves that lifetime registrations total 4x MaxThreads.
const (
	churnMaxThreads = 16
	churnWaves      = 4
)

// TestHandleChurnStacks churns every stack algorithm through the
// registry with a tight MaxThreads bound.
func TestHandleChurnStacks(t *testing.T) {
	for _, alg := range stack.Algorithms() {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			t.Parallel()
			s, err := stack.New[int64](alg, stack.WithMaxThreads(churnMaxThreads))
			if err != nil {
				t.Fatal(err)
			}
			var pushed, popped int64
			var mu sync.Mutex
			for wave := 0; wave < churnWaves; wave++ {
				var wg sync.WaitGroup
				for w := 0; w < churnMaxThreads; w++ {
					wg.Add(1)
					go func(wave, w int) {
						defer wg.Done()
						h := s.Register()
						defer h.Close()
						base := int64(wave*churnMaxThreads+w) << 32
						myPushed, myPopped := int64(0), int64(0)
						for i := int64(1); i <= 50; i++ {
							h.Push(base + i)
							myPushed++
							if i%2 == 0 {
								if _, ok := h.Pop(); ok {
									myPopped++
								}
							}
						}
						mu.Lock()
						pushed += myPushed
						popped += myPopped
						mu.Unlock()
					}(wave, w)
				}
				wg.Wait()
			}
			// 4x MaxThreads handles have come and gone; a full wave of
			// fresh ones must still fit.
			handles := make([]stack.Handle[int64], churnMaxThreads)
			for i := range handles {
				handles[i] = s.Register()
			}
			for _, h := range handles {
				for {
					if _, ok := h.Pop(); !ok {
						break
					}
					popped++
				}
			}
			for _, h := range handles {
				h.Close()
			}
			// One more drain through the implicit API catches anything a
			// racing pop left behind.
			for {
				if _, ok := s.Pop(); !ok {
					break
				}
				popped++
			}
			if pushed != popped {
				t.Fatalf("%s: pushed %d != popped %d after churn", alg, pushed, popped)
			}
		})
	}
}

// TestHandleChurnSECRecycling repeats the SEC churn with epoch-based
// node recycling on, so ebr slot recycling is exercised under churn
// too.
func TestHandleChurnSECRecycling(t *testing.T) {
	s := stack.NewSEC[int64](stack.WithMaxThreads(churnMaxThreads), stack.WithRecycling())
	for wave := 0; wave < churnWaves; wave++ {
		var wg sync.WaitGroup
		for w := 0; w < churnMaxThreads; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				h := s.Register()
				defer h.Close()
				for i := int64(0); i < 50; i++ {
					h.Push(i)
					h.Pop()
				}
			}(w)
		}
		wg.Wait()
	}
	if got := s.Register(); got == nil {
		t.Fatal("Register failed after recycling churn")
	}
}

// TestHandleChurnSECAdaptive repeats the SEC churn waves with the full
// adaptivity stack on - solo fast path, batch recycling, node
// recycling - and checks element conservation: handle
// slots (and with them engine session records and solo scratch batches)
// recycle across goroutine generations while batches recycle across
// freezes. Run with -race; the hazard handoff between a retiring
// batch's last reader and the freezer that reuses it is exactly the
// publication this test exists to check.
func TestHandleChurnSECAdaptive(t *testing.T) {
	s := stack.NewSEC[int64](
		stack.WithMaxThreads(churnMaxThreads),
		stack.WithAdaptive(true),
		stack.WithRecycling(),
	)
	var pushed, popped int64
	var mu sync.Mutex
	for wave := 0; wave < churnWaves; wave++ {
		var wg sync.WaitGroup
		for w := 0; w < churnMaxThreads; w++ {
			wg.Add(1)
			go func(wave, w int) {
				defer wg.Done()
				h := s.Register()
				defer h.Close()
				base := int64(wave*churnMaxThreads+w) << 32
				myPushed, myPopped := int64(0), int64(0)
				for i := int64(1); i <= 50; i++ {
					h.Push(base + i)
					myPushed++
					if i%2 == 0 {
						if _, ok := h.Pop(); ok {
							myPopped++
						}
					}
				}
				mu.Lock()
				pushed += myPushed
				popped += myPopped
				mu.Unlock()
			}(wave, w)
		}
		wg.Wait()
	}
	h := s.Register()
	defer h.Close()
	for {
		if _, ok := h.Pop(); !ok {
			break
		}
		popped++
	}
	if pushed != popped {
		t.Fatalf("adaptive SEC: pushed %d != popped %d after churn", pushed, popped)
	}
}

// TestHandleChurnDeque churns 4x MaxThreads deque handles and checks
// element conservation across both ends.
func TestHandleChurnDeque(t *testing.T) {
	d := deque.New[int64](deque.WithMaxThreads(churnMaxThreads))
	var pushed, popped int64
	var mu sync.Mutex
	for wave := 0; wave < churnWaves; wave++ {
		var wg sync.WaitGroup
		for w := 0; w < churnMaxThreads; w++ {
			wg.Add(1)
			go func(wave, w int) {
				defer wg.Done()
				h := d.Register()
				defer h.Close()
				base := int64(wave*churnMaxThreads+w) << 32
				myPushed, myPopped := int64(0), int64(0)
				for i := int64(1); i <= 30; i++ {
					if (w+int(i))%2 == 0 {
						h.PushLeft(base + i)
					} else {
						h.PushRight(base + i)
					}
					myPushed++
					if i%3 == 0 {
						if _, ok := h.PopLeft(); ok {
							myPopped++
						}
					}
				}
				mu.Lock()
				pushed += myPushed
				popped += myPopped
				mu.Unlock()
			}(wave, w)
		}
		wg.Wait()
	}
	h := d.Register()
	defer h.Close()
	for {
		if _, ok := h.PopRight(); !ok {
			break
		}
		popped++
	}
	if pushed != popped {
		t.Fatalf("deque: pushed %d != popped %d after churn", pushed, popped)
	}
}

// TestHandleChurnPool churns 4x MaxThreads pool handles; each Close
// also closes the per-shard SEC sessions, so the shard stacks' id
// free-lists recycle in lockstep.
func TestHandleChurnPool(t *testing.T) {
	p := pool.New[int64](pool.WithMaxThreads(churnMaxThreads), pool.WithShards(3))
	var put, got int64
	var mu sync.Mutex
	for wave := 0; wave < churnWaves; wave++ {
		var wg sync.WaitGroup
		for w := 0; w < churnMaxThreads; w++ {
			wg.Add(1)
			go func(wave, w int) {
				defer wg.Done()
				h := p.Register()
				defer h.Close()
				base := int64(wave*churnMaxThreads+w) << 32
				myPut, myGot := int64(0), int64(0)
				for i := int64(1); i <= 30; i++ {
					h.Put(base + i)
					myPut++
					if i%2 == 0 {
						if _, ok := h.Get(); ok {
							myGot++
						}
					}
				}
				mu.Lock()
				put += myPut
				got += myGot
				mu.Unlock()
			}(wave, w)
		}
		wg.Wait()
	}
	h := p.Register()
	defer h.Close()
	for {
		if _, ok := h.Get(); !ok {
			break
		}
		got++
	}
	if put != got {
		t.Fatalf("pool: put %d != got %d after churn", put, got)
	}
	if p.Size() != 0 {
		t.Fatalf("pool: Size=%d after full drain", p.Size())
	}
}

// TestHandleChurnFunnel churns 4x MaxThreads funnel handles; the final
// counter value must equal the sum of every FetchAdd amount regardless
// of how many handle generations contributed.
func TestHandleChurnFunnel(t *testing.T) {
	f := funnel.New(funnel.WithMaxThreads(churnMaxThreads))
	var want int64
	var mu sync.Mutex
	for wave := 0; wave < churnWaves; wave++ {
		var wg sync.WaitGroup
		for w := 0; w < churnMaxThreads; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				h := f.Register()
				defer h.Close()
				my := int64(0)
				for i := int64(1); i <= 40; i++ {
					h.FetchAdd(i)
					my += i
				}
				mu.Lock()
				want += my
				mu.Unlock()
			}(w)
		}
		wg.Wait()
	}
	if f.Load() != want {
		t.Fatalf("funnel: counter %d != sum of adds %d after churn", f.Load(), want)
	}
}
