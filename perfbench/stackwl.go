package main

import (
	"fmt"
	"time"

	"secstack/internal/xrand"
	"secstack/stack"
)

// stack-update: the paper's 100%-update mix (50% push, 50% pop) on the
// SEC stack through its handle-free Push/Pop, from stackWorkers
// goroutines, closed loop, stackPrefill elements prefilled.
const (
	stackWorkers = 2
	stackPrefill = 1000
)

// stackOps is the call surface shared by the handle-free stack and an
// explicit handle, so both phases run the same loop.
type stackOps interface {
	Push(v int64)
	Pop() (int64, bool)
}

// stackCounts is what one phase's workers did besides their op count.
type stackCounts struct {
	pops, empty int64
}

// newStack builds the stack with its shipped defaults plus opts, and
// prefills it with producer 0's values.
func newStack(opts ...stack.Option) (*stack.SECStack[int64], time.Duration, error) {
	start := time.Now()
	s, err := stack.New[int64](stack.SEC, opts...)
	if err != nil {
		return nil, 0, err
	}
	for i := 0; i < stackPrefill; i++ {
		s.Push(stackValue(0, int64(i)))
	}
	d := time.Since(start)
	sec, ok := s.(*stack.SECStack[int64])
	if !ok {
		return nil, 0, fmt.Errorf("stack.New(SEC) returned %T", s)
	}
	return sec, d, nil
}

// stackPhase runs the update mix on s for one plan and checks
// value-exact conservation afterwards. explicit runs every worker on
// its own registered Handle instead of the handle-free methods.
func stackPhase(s *stack.SECStack[int64], explicit bool, seed uint64, p plan, tracers []*tracer) (phase, stackCounts, error) {
	clk := &clock{n: p.n}
	latCap := int(p.window.Seconds()*float64(p.n)*2e6)/inProcSampleEvery + 4096
	meters := make([]*meter, stackWorkers)
	logs := make([]*popLog, stackWorkers)
	pushed := make([]int64, stackWorkers+1)
	pushed[0] = stackPrefill
	counts := make([]stackCounts, stackWorkers)
	workers := make([]func(*meter), stackWorkers)
	for w := range workers {
		meters[w] = newMeter(clk, inProcSampleEvery, latCap)
		logs[w] = newPopLog(stackWorkers + 1)
		workers[w] = func(m *meter) {
			var ops stackOps = s
			if explicit {
				h := s.Register()
				defer h.Close()
				ops = h
			}
			pushed[w+1], counts[w] = stackWorker(ops, w+1, seedFor(seed, w), m, tracers[w], logs[w], explicit)
		}
	}
	ph := p.run(meters, workers)
	var total stackCounts
	for _, c := range counts {
		total.pops += c.pops
		total.empty += c.empty
	}
	finalLen := s.Len()
	drain := newPopLog(stackWorkers + 1)
	for {
		v, ok := s.Pop()
		if !ok {
			break
		}
		drain.take(v)
	}
	return ph, total, checkConservation(pushed, logs, drain, finalLen)
}

// stackWorker is one closed-loop caller; it returns how many values it
// pushed and its pop tallies.
func stackWorker(ops stackOps, id int, seed uint64, m *meter, t *tracer, log *popLog, explicit bool) (int64, stackCounts) {
	var rng xrand.State // on this goroutine's stack, away from the other worker's
	rng.Seed(seed)
	pushName, popName := spStackPush, spStackPop
	if explicit {
		pushName, popName = spHandlePush, spHandlePop
	}
	var seq, req int64
	var c stackCounts
	for m.running() {
		req++
		push := rng.Uint64()&1 == 0
		timed, traced := m.sample(), t.traced()
		var start time.Time
		if timed {
			start = time.Now()
		}
		root, call := int32(-1), int32(-1)
		if traced {
			root = t.begin(spOp, -1, req)
		}
		if push {
			v := stackValue(id, seq)
			seq++
			if traced {
				call = t.begin(pushName, root, req)
			}
			ops.Push(v)
			t.end(call)
		} else {
			if traced {
				call = t.begin(popName, root, req)
			}
			v, ok := ops.Pop()
			t.end(call)
			c.pops++
			if ok {
				log.take(v)
			} else {
				c.empty++
			}
		}
		if timed {
			m.record(time.Since(start))
		}
		t.end(root)
		m.done()
	}
	return seq, c
}

func runStack(rc runConfig) *result {
	r := &result{metrics: map[string]float64{}}
	if rc.trace {
		traceStack(rc, r)
		return r
	}
	ph, setups := segmented(rc, r, func() (time.Duration, error) {
		_, d, err := newStack()
		return d, err
	}, func(seed uint64, p plan) (phase, error) {
		s, _, err := newStack()
		if err != nil {
			return phase{}, err
		}
		ph, _, err := stackPhase(s, false, seed, p, make([]*tracer, stackWorkers))
		return ph, err
	})
	r.attempted = ph.total
	fillEndToEnd(r, ph, setups)
	return r
}

// traceStack is the traced run: an untraced phase, a traced phase on a
// stack built WithMetrics, and a traced phase on explicit handles over
// the same op stream; each gets a third of the run.
func traceStack(rc runConfig, r *result) {
	p := planFor(rc.seconds / 3)
	s, _, err := newStack()
	if err != nil {
		r.fail("setup: %v", err)
		return
	}
	base, _, err := stackPhase(s, false, rc.seed, p, make([]*tracer, stackWorkers))
	if err != nil {
		r.fail("conservation (untraced): %v", err)
	}
	origin := time.Now()
	every := spanEvery(base, p, stackWorkers)
	implicit, explicit := newTracers(origin, every, stackWorkers), newTracers(origin, every, stackWorkers)
	if s, _, err = newStack(stack.WithMetrics()); err != nil {
		r.fail("setup: %v", err)
		return
	}
	traced, counts, err := stackPhase(s, false, rc.seed, p, implicit)
	if err != nil {
		r.fail("conservation (traced): %v", err)
	}
	snap := s.Metrics().Snapshot()
	if s, _, err = newStack(stack.WithMetrics()); err != nil {
		r.fail("setup: %v", err)
		return
	}
	handles, _, err := stackPhase(s, true, rc.seed, p, explicit)
	if err != nil {
		r.fail("conservation (explicit handles): %v", err)
	}
	r.attempted = base.total + traced.total + handles.total

	selfImp, selfExp := selfTimes(implicit), selfTimes(explicit)
	fillAgg(r, snap)
	r.metrics["stack.push_p50_ns"] = quantileOf(selfImp, 0.5, spStackPush)
	r.metrics["stack.pop_p50_ns"] = quantileOf(selfImp, 0.5, spStackPop)
	r.metrics["stack.pop_empty_pct"] = pct(counts.empty, counts.pops)
	r.metrics["isession.self_ns"] = quantileOf(selfImp, 0.5, spStackPush, spStackPop) - quantileOf(selfExp, 0.5, spHandlePush, spHandlePop)
	fillRuntime(r, base, traced)
	r.notes = append(r.notes, spanSummary(append(implicit, explicit...))...)
	writeTrace(rc, r, "stack-update", append(implicit, explicit...))
}
