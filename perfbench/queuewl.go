package main

import (
	"time"

	"secstack/queue"
)

// queue-pc: the bounded queue at its default capacity, handle-free; one
// goroutine enqueues 1, 2, 3, ... retrying while the queue is full, one
// dequeues retrying while it is empty. An op is one item delivered;
// latency is sampled on both sides, from an op's first attempt to the
// attempt that completed it.

// queueOps is the call surface shared by the handle-free queue and an
// explicit handle.
type queueOps interface {
	Enqueue(v int64) bool
	Dequeue() (int64, bool)
}

// queueCounts is what one phase's two workers did besides delivering.
type queueCounts struct {
	enqCalls, fullMiss  int64
	deqCalls, emptyMiss int64
}

// queueSetupGroup is how many queues one set-up measurement builds: a
// single build takes a few microseconds, too little to time steadily.
const queueSetupGroup = 64

// newQueue builds the queue with its shipped defaults plus opts.
func newQueue(opts ...queue.Option) *queue.Queue[int64] { return queue.New[int64](opts...) }

// timedQueues builds queueSetupGroup queues and returns the last with
// the mean build time.
func timedQueues() (*queue.Queue[int64], time.Duration) {
	start := time.Now()
	var q *queue.Queue[int64]
	for range queueSetupGroup {
		q = newQueue()
	}
	return q, time.Since(start) / queueSetupGroup
}

// queuePhase runs the producer/consumer pair on q for one plan, drains
// the queue and checks the consumer saw 1, 2, 3, ... with no gap.
func queuePhase(q *queue.Queue[int64], explicit bool, p plan, tracers []*tracer) (phase, queueCounts, error) {
	clk := &clock{n: p.n}
	latCap := int(p.window.Seconds()*float64(p.n)*2e6)/inProcSampleEvery + 4096
	meters := []*meter{newMeter(clk, inProcSampleEvery, latCap), newMeter(clk, inProcSampleEvery, latCap)}
	log := newFIFOLog()
	var produced int64
	var enq, deq queueCounts
	register := func() (queueOps, func()) {
		if !explicit {
			return q, func() {}
		}
		h := q.Register()
		return h, h.Close
	}
	workers := []func(*meter){
		func(m *meter) {
			ops, done := register()
			defer done()
			produced, enq = produce(ops, m, tracers[0], explicit)
		},
		func(m *meter) {
			ops, done := register()
			defer done()
			deq = consume(ops, m, tracers[1], explicit, log)
		},
	}
	ph := p.run(meters, workers)
	for {
		v, ok := q.Dequeue()
		if !ok {
			break
		}
		log.take(v)
	}
	enq.deqCalls, enq.emptyMiss = deq.deqCalls, deq.emptyMiss
	return ph, enq, log.check(produced)
}

// produce enqueues 1, 2, 3, ... until the phase ends and returns how
// many values the queue admitted, with its call tallies. Its ops are
// not counted: an op is an item delivered, which the consumer counts.
func produce(ops queueOps, m *meter, t *tracer, explicit bool) (int64, queueCounts) {
	var c queueCounts
	name := spEnqueue
	if explicit {
		name = spHandleEnqueue
	}
	next := int64(1)
	for m.running() {
		timed, traced := m.sample(), t.traced()
		var start time.Time
		if timed {
			start = time.Now()
		}
		root := int32(-1)
		if traced {
			root = t.begin(spOp, -1, next)
		}
		for {
			call := int32(-1)
			if traced {
				call = t.begin(name, root, next)
			}
			ok := ops.Enqueue(next)
			t.end(call)
			c.enqCalls++
			if ok {
				break
			}
			c.fullMiss++
			if !m.running() {
				t.end(root)
				return next - 1, c
			}
		}
		if timed {
			m.record(time.Since(start))
		}
		t.end(root)
		next++
	}
	return next - 1, c
}

// consume dequeues until the phase ends, logging every value, and
// returns its call tallies.
func consume(ops queueOps, m *meter, t *tracer, explicit bool, log *fifoLog) queueCounts {
	var c queueCounts
	name := spDequeue
	if explicit {
		name = spHandleDequeue
	}
	var req int64
	for m.running() {
		req++
		timed, traced := m.sample(), t.traced()
		var start time.Time
		if timed {
			start = time.Now()
		}
		root := int32(-1)
		if traced {
			root = t.begin(spOp, -1, req)
		}
		var v int64
		for {
			call := int32(-1)
			if traced {
				call = t.begin(name, root, req)
			}
			got, ok := ops.Dequeue()
			t.end(call)
			c.deqCalls++
			if ok {
				v = got
				break
			}
			c.emptyMiss++
			if !m.running() {
				t.end(root)
				return c
			}
		}
		if timed {
			m.record(time.Since(start))
		}
		t.end(root)
		log.take(v)
		m.done()
	}
	return c
}

func runQueue(rc runConfig) *result {
	r := &result{metrics: map[string]float64{}}
	if rc.trace {
		traceQueue(rc, r)
		return r
	}
	ph, setups := segmented(rc, r, func() (time.Duration, error) {
		_, d := timedQueues()
		return d, nil
	}, func(_ uint64, p plan) (phase, error) {
		ph, _, err := queuePhase(newQueue(), false, p, make([]*tracer, 2))
		return ph, err
	})
	r.attempted = ph.total
	fillEndToEnd(r, ph, setups)
	return r
}

// traceQueue mirrors traceStack: untraced, traced WithMetrics, traced
// on explicit handles.
func traceQueue(rc runConfig, r *result) {
	p := planFor(rc.seconds / 3)
	q := newQueue()
	base, _, err := queuePhase(q, false, p, make([]*tracer, 2))
	if err != nil {
		r.fail("fifo (untraced): %v", err)
	}
	origin := time.Now()
	every := spanEvery(base, p, 1)
	implicit, explicit := newTracers(origin, every, 2), newTracers(origin, every, 2)
	q = newQueue(queue.WithMetrics())
	traced, c, err := queuePhase(q, false, p, implicit)
	if err != nil {
		r.fail("fifo (traced): %v", err)
	}
	snap := q.Metrics().Snapshot()
	q = newQueue(queue.WithMetrics())
	handles, _, err := queuePhase(q, true, p, explicit)
	if err != nil {
		r.fail("fifo (explicit handles): %v", err)
	}
	r.attempted = base.total + traced.total + handles.total

	selfImp, selfExp := selfTimes(implicit), selfTimes(explicit)
	fillAgg(r, snap)
	r.metrics["queue.enqueue_p50_ns"] = quantileOf(selfImp, 0.5, spEnqueue)
	r.metrics["queue.dequeue_p50_ns"] = quantileOf(selfImp, 0.5, spDequeue)
	r.metrics["queue.full_miss_pct"] = pct(c.fullMiss, c.enqCalls)
	r.metrics["queue.empty_miss_pct"] = pct(c.emptyMiss, c.deqCalls)
	r.metrics["isession.self_ns"] = quantileOf(selfImp, 0.5, spEnqueue, spDequeue) - quantileOf(selfExp, 0.5, spHandleEnqueue, spHandleDequeue)
	fillRuntime(r, base, traced)
	r.notes = append(r.notes, spanSummary(append(implicit, explicit...))...)
	writeTrace(rc, r, "queue-pc", append(implicit, explicit...))
}
