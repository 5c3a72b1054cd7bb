// Command secd serves the repository's engines - a stack, a pool and a
// funnel - over TCP with the internal/wire framing, turning network
// fan-in into engine batches (DESIGN.md §11). Each accepted connection
// maps onto one engine session via TryRegister, so -maxconns bounds
// live connections and over-capacity handshakes are refused with a
// protocol-level busy reply instead of a crash; disconnects recycle
// their session's handle slots. SIGINT/SIGTERM drains gracefully:
// in-flight operations finish, clients get a shutdown goodbye, and the
// process exits once every session is gone.
//
// Usage:
//
//	secd                                  # serve SEC on :7425
//	secd -addr :9000 -maxconns 1024       # bigger session budget
//	secd -alg TRB -adaptive=false         # serve a baseline, engines stock
//
// Drive it with cmd/secload, or any client speaking internal/wire.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"secstack/internal/secd"
	"secstack/internal/wire"
	"secstack/stack"
)

func main() {
	var (
		addr     = flag.String("addr", ":7425", "TCP listen address")
		alg      = flag.String("alg", string(stack.SEC), "served stack algorithm (see -list)")
		maxconns = flag.Int("maxconns", 256, "live-connection bound (the engines' MaxThreads)")
		aggs     = flag.Int("aggregators", 2, "stack/funnel aggregator count")
		shards   = flag.Int("shards", 4, "pool shard count (the ceiling under -elastic)")
		adaptive = flag.Bool("adaptive", true, "enable engine contention adaptivity and node recycling")
		elastic  = flag.Bool("elastic", false, "enable the pool's elastic shard controller, fed by the live-session gauge")
		drain    = flag.Duration("drain", 5*time.Second, "graceful-drain budget on SIGTERM")
		readIdle = flag.Duration("read-idle", 2*time.Minute, "evict a session idle past this budget (0 disables)")
		wstall   = flag.Duration("write-stall", 10*time.Second, "evict a session whose reply flush stalls past this budget (0 disables)")
		list     = flag.Bool("list", false, "list the servable algorithm registry and exit")
	)
	flag.Parse()

	if *list {
		for _, a := range stack.Algorithms() {
			fmt.Printf("%-4s %s\n", a, stack.Describe(a))
		}
		return
	}

	cfg := secd.Config{
		Algorithm:   stack.Algorithm(*alg),
		MaxSessions: *maxconns,
		Aggregators: *aggs,
		Shards:      *shards,
		Adaptive:    *adaptive,
		Elastic:     *elastic,
		ReadIdle:    *readIdle,
		WriteStall:  *wstall,
	}
	// On the Config, zero means "default" and negative disables; the
	// flags' documented contract is that 0 disables.
	if *readIdle == 0 {
		cfg.ReadIdle = -1
	}
	if *wstall == 0 {
		cfg.WriteStall = -1
	}
	srv, err := secd.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "secd: %v\n", err)
		os.Exit(2)
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe(*addr) }()

	// Wait for the listener so the banner reports the resolved port
	// (":0" in tests and scripts picks a free one).
	for srv.Addr() == nil {
		select {
		case err := <-serveErr:
			fmt.Fprintf(os.Stderr, "secd: %v\n", err)
			os.Exit(1)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	fmt.Printf("secd: listening on %s\n", srv.Addr())
	fmt.Printf("secd: %s\n", secd.Banner(cfg))

	select {
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "secd: %v\n", err)
		os.Exit(1)
	case sig := <-sigs:
		fmt.Printf("secd: %v, draining (budget %v)\n", sig, *drain)
		if err := srv.Shutdown(*drain); err != nil {
			fmt.Fprintf(os.Stderr, "secd: %v\n", err)
			os.Exit(1)
		}
		<-serveErr // Serve returns nil after a graceful drain
	}

	m := srv.Metrics()
	snap := m.Snapshot()
	fmt.Printf("secd: drained; peak sessions %d, rejected %d, ops served %d, evicted %d, panics recovered %d, retries observed %d\n",
		snap.PeakSessions, snap.Rejected, snap.TotalOps, snap.Evictions, snap.PanicsRecovered, snap.RetriesObserved)
	for op := wire.Op(1); op < wire.NumOps; op++ {
		st := m.Op(int(op))
		if st.Count == 0 {
			continue
		}
		fmt.Printf("secd:   %-14s %10d ops  p50 %-10v p99 %v\n", op, st.Count, st.P50, st.P99)
	}
	if live := m.Sessions(); live != 0 {
		fmt.Fprintf(os.Stderr, "secd: %d sessions still live after drain\n", live)
		os.Exit(1)
	}
}
