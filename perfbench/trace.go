package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// Span names. Each span brackets one call the benchmark makes into a
// layer's public functions; spOp is the root of one operation.
const (
	spOp uint8 = iota
	spStackPush
	spStackPop
	spHandlePush
	spHandlePop
	spEnqueue
	spDequeue
	spHandleEnqueue
	spHandleDequeue
	spClientDo
	spWireEncode
	spWireDecode
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spOp:            "op",
	spStackPush:     "stack.Push",
	spStackPop:      "stack.Pop",
	spHandlePush:    "stack.Handle.Push",
	spHandlePop:     "stack.Handle.Pop",
	spEnqueue:       "queue.Enqueue",
	spDequeue:       "queue.Dequeue",
	spHandleEnqueue: "queue.Handle.Enqueue",
	spHandleDequeue: "queue.Handle.Dequeue",
	spClientDo:      "secclient.Do",
	spWireEncode:    "wire.encode",
	spWireDecode:    "wire.decode",
}

// spanBudget bounds the spans one traced worker keeps in memory.
const spanBudget = 1 << 15

// spanEvery picks the tracing stride that spreads each worker's span
// budget over a phase as long as the untraced one, warmup included, at
// two spans per traced op and with half again as many ops for
// headroom.
func spanEvery(base phase, p plan, workers int) uint64 {
	perWorker := float64(base.total) / float64(workers) * float64(p.n+1) / float64(p.n)
	return uint64(max(1, perWorker*2*1.5/spanBudget))
}

func newTracers(origin time.Time, every uint64, n int) []*tracer {
	t := make([]*tracer, n)
	for i := range t {
		t[i] = newTracer(origin, every, spanBudget)
	}
	return t
}

// span is one timed call: name, start, end, the span that caused it
// and the operation (request) it belongs to.
type span struct {
	start, end int64 // ns since the tracer's origin
	req        int64 // request id: the worker's operation number
	parent     int32 // index of the parent span in the same buffer; -1 for a root
	name       uint8
}

// tracer records one worker goroutine's spans into a buffer sized up
// front, so tracing allocates nothing while the phase runs. A nil
// *tracer records nothing.
type tracer struct {
	_       linePad
	origin  time.Time
	spans   []span
	dropped int64
	every   uint64 // trace one operation in every
	n       uint64
	_       linePad
}

func newTracer(origin time.Time, every uint64, capacity int) *tracer {
	return &tracer{origin: origin, spans: make([]span, 0, capacity), every: max(every, 1)}
}

// traced reports whether the worker's next operation is to be traced.
func (t *tracer) traced() bool {
	if t == nil {
		return false
	}
	t.n++
	return t.n%t.every == 0
}

// begin opens a span and returns its index, or -1 once the buffer is
// full (the span is then counted as dropped).
func (t *tracer) begin(name uint8, parent int32, req int64) int32 {
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{start: int64(time.Since(t.origin)), req: req, parent: parent, name: name})
	return int32(len(t.spans) - 1)
}

// end closes span i.
func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].end = int64(time.Since(t.origin))
	}
}

// selfTimes returns, per span name, every span's self time: its
// duration minus the part of it that its child spans cover. Children
// of one span are recorded in start order on one goroutine, so a
// running high-water mark per parent computes the covered union.
func selfTimes(tracers []*tracer) [numSpanNames][]int64 {
	var out [numSpanNames][]int64
	for _, t := range tracers {
		if t == nil {
			continue
		}
		covered := make([]int64, len(t.spans))
		mark := make([]int64, len(t.spans))
		for i, s := range t.spans {
			mark[i] = s.start
		}
		for _, s := range t.spans {
			if s.parent < 0 {
				continue
			}
			p := t.spans[s.parent]
			lo := max(s.start, mark[s.parent], p.start)
			hi := min(s.end, p.end)
			if hi > lo {
				covered[s.parent] += hi - lo
				mark[s.parent] = hi
			}
		}
		for i, s := range t.spans {
			out[s.name] = append(out[s.name], s.end-s.start-covered[i])
		}
	}
	for i := range out {
		slices.Sort(out[i])
	}
	return out
}

// durations returns, per span name, every span's duration, sorted.
func durations(tracers []*tracer) [numSpanNames][]int64 {
	var out [numSpanNames][]int64
	for _, t := range tracers {
		if t == nil {
			continue
		}
		for _, s := range t.spans {
			out[s.name] = append(out[s.name], s.end-s.start)
		}
	}
	for i := range out {
		slices.Sort(out[i])
	}
	return out
}

// quantileOf is the q-quantile of the samples of the given span names
// merged; 0 when too few samples lie beyond it.
func quantileOf(by [numSpanNames][]int64, q float64, names ...uint8) float64 {
	var all []int64
	for _, n := range names {
		all = append(all, by[n]...)
	}
	slices.Sort(all)
	v, _ := quantile(all, q)
	return v
}

// writeSpans writes every recorded span as CSV, one file per workload
// under dir, after a comment line stamping the run.
func writeSpans(dir, workload, stamp string, tracers []*tracer) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".csv")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	if err := encodeSpans(w, stamp, tracers); err != nil {
		f.Close()
		return "", err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

func encodeSpans(w io.Writer, stamp string, tracers []*tracer) error {
	if _, err := fmt.Fprintf(w, "# %s\nworker,index,parent,req,name,start_ns,end_ns\n", stamp); err != nil {
		return err
	}
	for wk, t := range tracers {
		if t == nil {
			continue
		}
		for i, s := range t.spans {
			if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%s,%d,%d\n", wk, i, s.parent, s.req, spanNames[s.name], s.start, s.end); err != nil {
				return err
			}
		}
	}
	return nil
}

// spanSummary renders one line per span name: count, p50 duration and
// p50 self time.
func spanSummary(tracers []*tracer) []string {
	dur, self := durations(tracers), selfTimes(tracers)
	var lines []string
	var dropped int64
	for _, t := range tracers {
		if t != nil {
			dropped += t.dropped
		}
	}
	for n := uint8(0); n < numSpanNames; n++ {
		if len(dur[n]) == 0 {
			continue
		}
		d, _ := quantile(dur[n], 0.5)
		s, _ := quantile(self[n], 0.5)
		lines = append(lines, fmt.Sprintf("span %-22s n=%-8d p50=%7.0fns self.p50=%7.0fns", spanNames[n], len(dur[n]), d, s))
	}
	return append(lines, fmt.Sprintf("spans dropped (buffer full): %d", dropped))
}
