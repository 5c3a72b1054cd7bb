package main

import (
	"errors"
	"fmt"
	"math/bits"

	"secstack/internal/wire"
)

// Output checks. Each workload records its history in one of the logs
// below while it runs and judges it with the matching check once the
// workers have stopped; main_test.go feeds each check corrupted
// histories.

// Stack values carry their producer and that producer's sequence
// number, so every pushed value is distinct.
const seqBits = 40

func stackValue(producer int, seq int64) int64 { return int64(producer)<<seqBits | seq }

// bitset is a set of non-negative integers stored in chunks allocated
// on first use, so it grows with the run without reallocating.
type bitset struct{ chunks [][]uint64 }

const chunkWords = 1 << 16 // 4 Mi bits, 512 KiB per chunk

// set adds i and reports whether it was already present.
func (b *bitset) set(i int64) bool {
	c, w := int(i/(64*chunkWords)), int(i/64%chunkWords)
	for len(b.chunks) <= c {
		b.chunks = append(b.chunks, nil)
	}
	if b.chunks[c] == nil {
		b.chunks[c] = make([]uint64, chunkWords)
	}
	bit := uint64(1) << (i % 64)
	was := b.chunks[c][w]&bit != 0
	b.chunks[c][w] |= bit
	return was
}

// word returns the 64 bits starting at 64*k.
func (b *bitset) word(k int) uint64 {
	c := k / chunkWords
	if c >= len(b.chunks) || b.chunks[c] == nil {
		return 0
	}
	return b.chunks[c][k%chunkWords]
}

func (b *bitset) words() int { return len(b.chunks) * chunkWords }

// popLog is one consumer's record of the values it took off the stack.
type popLog struct {
	_       linePad
	taken   []bitset // per producer: sequence numbers taken
	pops    int64
	dup     int64 // values this consumer took twice
	foreign int64 // values no producer could have pushed
	_       linePad
}

func newPopLog(producers int) *popLog { return &popLog{taken: make([]bitset, producers)} }

func (l *popLog) take(v int64) {
	l.pops++
	p, seq := v>>seqBits, v&(1<<seqBits-1)
	if v < 0 || p >= int64(len(l.taken)) {
		l.foreign++
		return
	}
	if l.taken[p].set(seq) {
		l.dup++
	}
}

// checkConservation judges a finished stack history: producer p pushed
// sequence numbers [0, pushed[p]); logs are the consumers' records,
// drain included; finalLen is the stack's length before the drain,
// whose record is drain. Every pushed value must have been popped
// exactly once, nothing else popped, and pushes minus pops during the
// run must equal the final length.
func checkConservation(pushed []int64, logs []*popLog, drain *popLog, finalLen int) error {
	all := append(logs[:len(logs):len(logs)], drain)
	var runPops, totalPushed int64
	for i, l := range all {
		if l.dup > 0 || l.foreign > 0 {
			return fmt.Errorf("consumer %d popped %d values twice and %d values never pushed", i, l.dup, l.foreign)
		}
		if l != drain {
			runPops += l.pops
		}
	}
	for p, n := range pushed {
		totalPushed += n
		words := 0
		for _, l := range all {
			words = max(words, l.taken[p].words())
		}
		var seen int64
		for k := 0; k < words; k++ {
			var union uint64
			for _, l := range all {
				w := l.taken[p].word(k)
				if union&w != 0 {
					return fmt.Errorf("producer %d: a value near seq %d was popped by two consumers", p, 64*k)
				}
				union |= w
			}
			if union != 0 && int64(64*k+63-bits.LeadingZeros64(union)) >= n {
				return fmt.Errorf("producer %d: a value at seq >= %d was popped but never pushed", p, n)
			}
			seen += int64(bits.OnesCount64(union))
		}
		if seen != n {
			return fmt.Errorf("producer %d: pushed %d values, %d came back", p, n, seen)
		}
	}
	if totalPushed-runPops != int64(finalLen) {
		return fmt.Errorf("pushes %d - pops %d = %d, but the final length is %d", totalPushed, runPops, totalPushed-runPops, finalLen)
	}
	if drain.pops != int64(finalLen) {
		return fmt.Errorf("final length %d, but the drain popped %d", finalLen, drain.pops)
	}
	return nil
}

// fifoLog is the queue consumer's record: values must arrive as
// 1, 2, 3, ... with no gap, repeat or reordering.
type fifoLog struct {
	_     linePad
	next  int64 // the value expected next
	got   int64
	bad   int64
	first string
	_     linePad
}

func newFIFOLog() *fifoLog { return &fifoLog{next: 1} }

func (f *fifoLog) take(v int64) {
	f.got++
	if v != f.next {
		if f.bad == 0 {
			f.first = fmt.Sprintf("dequeued %d after %d", v, f.next-1)
		}
		f.bad++
	}
	f.next = v + 1
}

// check judges the whole history once the queue has been drained:
// produced values were enqueued, all of them must have come out in
// order.
func (f *fifoLog) check(produced int64) error {
	if f.bad > 0 {
		return fmt.Errorf("%d out-of-order dequeues, first: %s", f.bad, f.first)
	}
	if f.got != produced {
		return fmt.Errorf("enqueued %d values, dequeued %d", produced, f.got)
	}
	return nil
}

// acceptable reports whether status is a legal reply to op, as in
// cmd/secload.
func acceptable(op wire.Op, status wire.Status) bool {
	switch status {
	case wire.StatusOK:
		return true
	case wire.StatusEmpty:
		return op == wire.OpStackPop || op == wire.OpStackPeek || op == wire.OpPoolGet
	case wire.StatusContended:
		return op == wire.OpFunnelTryAdd
	}
	return false
}

// servedLog is one client's record of its replies.
type servedLog struct {
	_        linePad
	acked    int64 // operations acknowledged with a legal status
	bad      int64 // replies with a status illegal for their op
	first    string
	lost     int64 // operations Do gave up on
	ackedAdd int64 // sum of acknowledged funnel additions
	_        linePad
}

func (l *servedLog) reply(op wire.Op, arg int64, rep wire.Reply, err error) {
	if err != nil {
		l.lost++
		return
	}
	if !acceptable(op, rep.Status) {
		if l.bad == 0 {
			l.first = fmt.Sprintf("%v answered %v", op, rep.Status)
		}
		l.bad++
		return
	}
	l.acked++
	if rep.Status == wire.StatusOK && (op == wire.OpFunnelAdd || op == wire.OpFunnelTryAdd) {
		l.ackedAdd += arg
	}
}

// servedEnd is what the served workload observes after its clients
// stopped: the server's own counters, the funnel's final value and the
// clients' retry tallies.
type servedEnd struct {
	logs          []*servedLog
	retries       int64 // attempts the clients re-sent
	funnel        int64 // the funnel's final Load
	serverOps     int64 // operations the server executed
	sessionsAfter int64 // live-session gauge after Shutdown
	shutdownErr   error // Shutdown's result: a drain that force-closed connections is an error
}

// failed counts failed operations: lost, illegal replies and retried
// attempts.
func (e servedEnd) failed() int64 {
	n := e.retries
	for _, l := range e.logs {
		n += l.lost + l.bad
	}
	return n
}

func (e servedEnd) check() error {
	var errs []error
	var acked, adds int64
	for i, l := range e.logs {
		if l.bad > 0 {
			errs = append(errs, fmt.Errorf("client %d: %d illegal replies, first: %s", i, l.bad, l.first))
		}
		if l.lost > 0 {
			errs = append(errs, fmt.Errorf("client %d: %d operations lost", i, l.lost))
		}
		acked += l.acked
		adds += l.ackedAdd
	}
	if e.retries > 0 {
		errs = append(errs, fmt.Errorf("clients retried %d attempts", e.retries))
	}
	if e.funnel != adds {
		errs = append(errs, fmt.Errorf("funnel reads %d, acknowledged additions sum to %d", e.funnel, adds))
	}
	if e.serverOps != acked {
		errs = append(errs, fmt.Errorf("server executed %d operations, clients acknowledged %d", e.serverOps, acked))
	}
	if e.shutdownErr != nil {
		errs = append(errs, fmt.Errorf("shutdown: %w", e.shutdownErr))
	}
	if e.sessionsAfter != 0 {
		errs = append(errs, fmt.Errorf("%d sessions live after shutdown", e.sessionsAfter))
	}
	return errors.Join(errs...)
}
