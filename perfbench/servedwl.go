package main

import (
	"errors"
	"net"
	"sync/atomic"
	"time"

	"secstack/internal/secclient"
	"secstack/internal/secd"
	"secstack/internal/wire"
	"secstack/internal/xrand"
	"secstack/stack"
)

// served-mixed: secd served in-process on a loopback listener, built
// the way cmd/secd builds it with no flags, driven by servedConns
// secclient connections issuing cmd/secload's mixed mix. secclient
// allows one outstanding request per connection, so the loop is
// closed.
const (
	servedConns = 2
	// drainBudget is cmd/secd's default -drain.
	drainBudget = 5 * time.Second
	// wireReps is how many times a traced op re-encodes and re-decodes
	// its own frames, so one span covers enough work to time.
	wireReps = 16
)

// mixedMix is cmd/secload's "mixed" mix, in percent.
var mixedMix = []struct {
	op     wire.Op
	weight int
}{
	{wire.OpStackPush, 20}, {wire.OpStackPop, 20},
	{wire.OpPoolPut, 15}, {wire.OpPoolGet, 15},
	{wire.OpFunnelAdd, 15}, {wire.OpFunnelTryAdd, 10}, {wire.OpFunnelLoad, 5},
}

// pickOp maps a roll in [0,100) onto mixedMix.
func pickOp(roll int) wire.Op {
	for _, e := range mixedMix {
		if roll < e.weight {
			return e.op
		}
		roll -= e.weight
	}
	return mixedMix[len(mixedMix)-1].op
}

// secdConfig is the Config cmd/secd builds when given no flags.
func secdConfig() secd.Config {
	return secd.Config{
		Algorithm:   stack.SEC,
		MaxSessions: 256,
		Aggregators: 2,
		Shards:      4,
		Adaptive:    true,
		ReadIdle:    2 * time.Minute,
		WriteStall:  10 * time.Second,
	}
}

// sockStats counts secd's socket calls through a wrapped listener.
type sockStats struct {
	reads, writes, readNs, writeNs, bytes atomic.Int64
}

type sockSnap struct{ reads, writes, readNs, writeNs, bytes int64 }

func (s *sockStats) snap() sockSnap {
	if s == nil {
		return sockSnap{}
	}
	return sockSnap{s.reads.Load(), s.writes.Load(), s.readNs.Load(), s.writeNs.Load(), s.bytes.Load()}
}

func (a sockSnap) sub(b sockSnap) sockSnap {
	return sockSnap{a.reads - b.reads, a.writes - b.writes, a.readNs - b.readNs, a.writeNs - b.writeNs, a.bytes - b.bytes}
}

// tracedListener hands secd connections whose Read and Write are
// counted and timed.
type tracedListener struct {
	net.Listener
	st *sockStats
}

func (l tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return tracedConn{c, l.st}, nil
}

type tracedConn struct {
	net.Conn
	st *sockStats
}

func (c tracedConn) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Read(p)
	c.st.readNs.Add(int64(time.Since(start)))
	c.st.reads.Add(1)
	c.st.bytes.Add(int64(n))
	return n, err
}

func (c tracedConn) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(p)
	c.st.writeNs.Add(int64(time.Since(start)))
	c.st.writes.Add(1)
	c.st.bytes.Add(int64(n))
	return n, err
}

// rig is one served structure: a server on a loopback listener and the
// clients connected to it.
type rig struct {
	srv     *secd.Server
	clients []*secclient.Client
	served  chan error // Serve's result
	sock    *sockStats // nil unless the listener is traced
}

// startRig builds the server, starts serving and connects the clients
// through the wire handshake; the duration is the set-up time.
func startRig(seed uint64, sock *sockStats) (*rig, time.Duration, error) {
	start := time.Now()
	srv, err := secd.New(secdConfig())
	if err != nil {
		return nil, 0, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := lis.Addr().String()
	if sock != nil {
		lis = tracedListener{lis, sock}
	}
	r := &rig{srv: srv, served: make(chan error, 1), sock: sock}
	go func() { r.served <- srv.Serve(lis) }()
	for i := 0; i < servedConns; i++ {
		c, err := secclient.Dial(secclient.Config{Addr: addr, Seed: seedFor(seed, i)})
		if err != nil {
			return nil, 0, errors.Join(err, r.disconnect())
		}
		r.clients = append(r.clients, c)
	}
	return r, time.Since(start), nil
}

// shutdown drains the server while the clients are still connected,
// as a SIGTERM to cmd/secd would, then closes the clients. It returns
// Shutdown's error (a drain that had to force-close connections) or
// Serve's.
func (r *rig) shutdown() error {
	err := r.srv.Shutdown(drainBudget)
	for _, c := range r.clients {
		c.Close()
	}
	return errors.Join(err, <-r.served)
}

// disconnect closes the clients first, then shuts the idle server
// down: the teardown of a set-up repetition.
func (r *rig) disconnect() error {
	for _, c := range r.clients {
		c.Close()
	}
	return errors.Join(r.srv.Shutdown(drainBudget), <-r.served)
}

// servedLayers is what the socket wrapper and the server's counters
// saw over one phase's windows.
type servedLayers struct {
	sock      sockSnap
	serverOps int64
	redials   int64
}

// servedPhase drives the clients for one plan, shuts the rig down and
// gathers what the output check needs.
func servedPhase(r *rig, seed uint64, p plan, tracers []*tracer) (phase, servedEnd, servedLayers) {
	clk := &clock{n: p.n}
	var s0 sockSnap
	var ops0 int64
	var layers servedLayers
	clk.edge = func(end bool) {
		if !end {
			s0, ops0 = r.sock.snap(), r.srv.Metrics().TotalOps()
			return
		}
		layers.sock = r.sock.snap().sub(s0)
		layers.serverOps = r.srv.Metrics().TotalOps() - ops0
	}
	latCap := int(p.window.Seconds()*float64(p.n)*1e5) + 4096
	meters := make([]*meter, servedConns)
	end := servedEnd{logs: make([]*servedLog, servedConns)}
	workers := make([]func(*meter), servedConns)
	for i := range workers {
		meters[i] = newMeter(clk, 1, latCap)
		end.logs[i] = &servedLog{}
		workers[i] = func(m *meter) { servedWorker(r.clients[i], seedFor(seed, i), m, tracers[i], end.logs[i]) }
	}
	ph := p.run(meters, workers)
	for _, c := range r.clients {
		st := c.Stats()
		end.retries += st.Retries
		layers.redials += st.Redials
	}
	end.funnel = r.srv.Funnel().Load()
	end.serverOps = r.srv.Metrics().TotalOps()
	end.shutdownErr = r.shutdown()
	end.sessionsAfter = r.srv.Metrics().Sessions()
	return ph, end, layers
}

// wireBufs is a traced worker's scratch for re-encoding its frames.
type wireBufs struct {
	req, rep []byte
	sink     int64
}

// servedWorker is one closed-loop connection. Every op is timed; an op
// counts as completed when it was acknowledged.
func servedWorker(c *secclient.Client, seed uint64, m *meter, t *tracer, log *servedLog) {
	var rng xrand.State
	rng.Seed(seed)
	var bufs wireBufs
	var req int64
	for m.running() {
		req++
		op, arg := pickOp(rng.Intn(100)), int64(rng.Intn(1000))
		root, call := int32(-1), int32(-1)
		traced := t.traced()
		if traced {
			root = t.begin(spOp, -1, req)
			call = t.begin(spClientDo, root, req)
		}
		start := time.Now()
		rep, err := c.Do(op, arg)
		m.record(time.Since(start))
		t.end(call)
		log.reply(op, arg, rep, err)
		if traced {
			timeWire(t, root, req, wire.Request{Op: op, Arg: arg}, rep, &bufs)
		}
		t.end(root)
		if err == nil {
			m.done()
		}
	}
}

// timeWire times the wire layer on this op's own frames: encoding the
// request and the reply, then decoding both, wireReps times each.
func timeWire(t *tracer, root int32, req int64, q wire.Request, rep wire.Reply, b *wireBufs) {
	enc := t.begin(spWireEncode, root, req)
	for range wireReps {
		b.req = wire.AppendRequest(b.req[:0], q)
		b.rep = wire.AppendReply(b.rep[:0], rep)
	}
	t.end(enc)
	dec := t.begin(spWireDecode, root, req)
	for range wireReps {
		dq, _, _ := wire.DecodeRequest(b.req)
		dp, _, _ := wire.DecodeReply(b.rep)
		b.sink += dq.Arg ^ dp.Value
	}
	t.end(dec)
}

func runServed(rc runConfig) *result {
	r := &result{metrics: map[string]float64{}}
	if rc.trace {
		traceServed(rc, r)
		return r
	}
	ph, setups := segmented(rc, r, func() (time.Duration, error) {
		g, d, err := startRig(rc.seed, nil)
		if err != nil {
			return 0, err
		}
		return d, g.disconnect()
	}, func(seed uint64, p plan) (phase, error) {
		g, _, err := startRig(seed, nil)
		if err != nil {
			return phase{}, err
		}
		ph, end, _ := servedPhase(g, seed, p, make([]*tracer, servedConns))
		r.failed += end.failed()
		return ph, end.check()
	})
	r.attempted = ph.total + r.failed
	fillEndToEnd(r, ph, setups)
	return r
}

// traceServed is the traced run: an untraced phase on a plain listener,
// then a traced phase on a wrapped one; each gets half the run.
func traceServed(rc runConfig, r *result) {
	p := planFor(rc.seconds / 2)
	g, _, err := startRig(rc.seed, nil)
	if err != nil {
		r.fail("setup: %v", err)
		return
	}
	base, end, _ := servedPhase(g, rc.seed, p, make([]*tracer, servedConns))
	if err := end.check(); err != nil {
		r.fail("served (untraced): %v", err)
	}
	r.failed = end.failed()
	sock := &sockStats{}
	if g, _, err = startRig(rc.seed, sock); err != nil {
		r.fail("setup: %v", err)
		return
	}
	tracers := newTracers(time.Now(), spanEvery(base, p, servedConns)*2, servedConns)
	traced, end, layers := servedPhase(g, rc.seed, p, tracers)
	if err := end.check(); err != nil {
		r.fail("served (traced): %v", err)
	}
	r.failed += end.failed()
	r.attempted = base.total + traced.total + r.failed

	self := selfTimes(tracers)
	do50, do99 := quantileOf(self, 0.5, spClientDo), quantileOf(self, 0.99, spClientDo)
	r.metrics["secclient.do_p50_ns"] = do50
	r.metrics["secclient.do_p99_ns"] = do99
	r.metrics["secclient.retries"] = float64(end.retries)
	r.metrics["secclient.redials"] = float64(layers.redials)
	r.metrics["wire.encode_ns"] = quantileOf(self, 0.5, spWireEncode) / wireReps
	r.metrics["wire.decode_ns"] = quantileOf(self, 0.5, spWireDecode) / wireReps
	ops := float64(max(layers.serverOps, 1))
	s := layers.sock
	r.metrics["wire.bytes_per_op"] = float64(s.bytes) / ops
	r.metrics["socket.read_calls_per_op"] = float64(s.reads) / ops
	r.metrics["socket.write_calls_per_op"] = float64(s.writes) / ops
	r.metrics["socket.write_ns"] = float64(s.writeNs) / float64(max(s.writes, 1))
	r.metrics["socket.read_wait_ns"] = float64(s.readNs) / float64(max(s.reads, 1))

	// Server.Metrics().Op keeps one latency histogram per opcode; an
	// engine's figure is its opcodes' p50s weighted by their counts.
	engines := []struct {
		name string
		ops  []wire.Op
	}{
		{"stack", []wire.Op{wire.OpStackPush, wire.OpStackPop}},
		{"pool", []wire.Op{wire.OpPoolPut, wire.OpPoolGet}},
		{"funnel", []wire.Op{wire.OpFunnelAdd, wire.OpFunnelTryAdd, wire.OpFunnelLoad}},
	}
	var allSum, allN float64
	for _, e := range engines {
		var sum, n float64
		for _, op := range e.ops {
			st := g.srv.Metrics().Op(int(op))
			sum += float64(st.P50) * float64(st.Count)
			n += float64(st.Count)
		}
		r.metrics["secd.exec_p50_ns."+e.name] = sum / max(n, 1)
		allSum, allN = allSum+sum, allN+n
	}
	exec := allSum / max(allN, 1)
	r.metrics["secd.exec_p50_ns.all"] = exec
	if do50 > 0 {
		r.metrics["secd.outside_engine_pct"] = 100 * (1 - exec/do50)
	}
	r.note("outside_engine_pct bases: secd exec p50 %.0fns (count-weighted over %d ops), secclient.Do p50 %.0fns", exec, int64(allN), do50)
	fillRuntime(r, base, traced)
	r.notes = append(r.notes, spanSummary(tracers)...)
	writeTrace(rc, r, "served-mixed", tracers)
}
