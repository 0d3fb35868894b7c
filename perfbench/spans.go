package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/obs"
)

// span is one timed call into a layer.
type span struct {
	name       string
	parent     int32 // index of the enclosing span, -1 at the root
	run        int32 // shared by every span of one program run; 0 outside runs
	start, end int64 // ns since the tracer's epoch
}

// tracer keeps spans in memory for the traced passes; they are written out
// when the benchmark ends. Spans nest strictly. A nil tracer records
// nothing, which is how untraced passes run.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int32 // the open spans, innermost last
	run   int32   // run id of the spans begun now
	runs  int32   // run ids handed out
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent, run: t.run, start: int64(time.Since(t.epoch))})
	id := int32(len(t.spans) - 1)
	t.open = append(t.open, id)
	return id
}

// end closes span id, and any span a panic left open inside it, and returns
// the span's duration in nanoseconds.
func (t *tracer) end(id int32) int64 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	for n := len(t.open); n > 0; n-- {
		top := t.open[n-1]
		t.open = t.open[:n-1]
		t.spans[top].end = now
		if top == id {
			t.run = 0
			if n > 1 {
				t.run = t.spans[t.open[n-2]].run
			}
			return now - t.spans[id].start
		}
	}
	panic(fmt.Sprintf("tracer: span %d is not open", id))
}

// beginRun opens the span of one program run: it and every span inside it
// share a new run id.
func (t *tracer) beginRun(name string) int32 {
	if t == nil {
		return -1
	}
	t.runs++
	t.run = t.runs
	return t.begin(name)
}

// spanTotals is the summed duration and self time of the spans of one name.
type spanTotals struct {
	name    string
	count   int
	totalNS int64
	selfNS  int64
}

// selfTimes sums every span name's duration and self time: a span's
// duration minus the time its child spans cover. Children never overlap,
// since spans nest strictly.
func selfTimes(spans []span) []spanTotals {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	by := map[string]*spanTotals{}
	for i, s := range spans {
		t := by[s.name]
		if t == nil {
			t = &spanTotals{name: s.name}
			by[s.name] = t
		}
		d := s.end - s.start
		t.count++
		t.totalNS += d
		t.selfNS += d - child[i]
	}
	out := make([]spanTotals, 0, len(by))
	for _, t := range by {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].selfNS != out[j].selfNS {
			return out[i].selfNS > out[j].selfNS
		}
		return out[i].name < out[j].name
	})
	return out
}

// writeSpans writes the spans as Chrome trace-event JSON (loadable in
// Perfetto), one complete event per span carrying its id, parent and run id.
// Timestamps and durations are host nanoseconds, so hook calls shorter than a
// microsecond keep their length; Perfetto shows one nanosecond as one
// microsecond.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	tw := obs.NewTraceWriter(bw)
	for i, s := range spans {
		tw.Span(1, 1, s.name, uint64(s.start), uint64(s.end-s.start),
			map[string]any{"id": i, "parent": s.parent, "run": s.run})
	}
	err = tw.Close()
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
