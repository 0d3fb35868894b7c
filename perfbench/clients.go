package main

import (
	"fmt"
	"reflect"
	"slices"

	"repro/internal/core"
	"repro/internal/instr"
	"repro/internal/machine"
)

// hookTypes lists every client hook interface the runtime probes for. The
// runtime charges simulated time for some hooks merely because a client
// implements them, so a timing wrapper must implement exactly the hooks of
// the client it wraps.
var hookTypes = []reflect.Type{
	reflect.TypeFor[core.InitHook](),
	reflect.TypeFor[core.ExitHook](),
	reflect.TypeFor[core.ThreadInitHook](),
	reflect.TypeFor[core.ThreadExitHook](),
	reflect.TypeFor[core.BasicBlockHook](),
	reflect.TypeFor[core.TraceHook](),
	reflect.TypeFor[core.FragmentDeletedHook](),
	reflect.TypeFor[core.FragmentEvictedHook](),
	reflect.TypeFor[core.CacheResizedHook](),
	reflect.TypeFor[core.IBLResizedHook](),
	reflect.TypeFor[core.ThreadDetachHook](),
	reflect.TypeFor[core.ThreadReattachHook](),
	reflect.TypeFor[core.WatchdogHook](),
	reflect.TypeFor[core.EndTraceHook](),
}

// hookSet names the hook interfaces c implements.
func hookSet(c core.Client) []string {
	var s []string
	t := reflect.TypeOf(c)
	for _, h := range hookTypes {
		if t.Implements(h) {
			s = append(s, h.Name())
		}
	}
	return s
}

// hookStats accumulates the host time and call count of one client's hooks.
type hookStats struct {
	calls uint64
	ns    int64
}

// hookTimer records each hook call as a span and adds its duration to the
// client's totals.
type hookTimer struct {
	tr    *tracer
	span  string
	stats *hookStats
}

func (h hookTimer) begin() int32 { return h.tr.begin(h.span) }

func (h hookTimer) end(id int32) {
	h.stats.calls++
	h.stats.ns += h.tr.end(id)
}

// traceClient is the hook set of rlr, inc2add and ibdispatch.
type traceClient interface {
	core.Client
	core.InitHook
	core.ExitHook
	core.TraceHook
}

// ctraceClient is the hook set of ctrace, which also shapes traces.
type ctraceClient interface {
	traceClient
	core.BasicBlockHook
	core.EndTraceHook
}

type traceWrap struct {
	hookTimer
	c traceClient
}

func (w *traceWrap) Name() string { return w.c.Name() }

func (w *traceWrap) Init(r *core.RIO) {
	id := w.begin()
	w.c.Init(r)
	w.end(id)
}

func (w *traceWrap) Exit(r *core.RIO) {
	id := w.begin()
	w.c.Exit(r)
	w.end(id)
}

func (w *traceWrap) Trace(ctx *core.Context, tag machine.Addr, l *instr.List) {
	id := w.begin()
	w.c.Trace(ctx, tag, l)
	w.end(id)
}

type ctraceWrap struct {
	traceWrap
	c ctraceClient
}

func (w *ctraceWrap) BasicBlock(ctx *core.Context, tag machine.Addr, bb *instr.List) {
	id := w.begin()
	w.c.BasicBlock(ctx, tag, bb)
	w.end(id)
}

func (w *ctraceWrap) EndTrace(ctx *core.Context, traceTag, nextTag machine.Addr) core.EndTraceDecision {
	id := w.begin()
	d := w.c.EndTrace(ctx, traceTag, nextTag)
	w.end(id)
	return d
}

// wrapClient returns a timing wrapper for c whose hook set equals c's, with
// its totals in stats. A client with a hook set no wrapper covers is an
// error, so a new client hook cannot silently change simulated time.
func wrapClient(c core.Client, tr *tracer, stats *hookStats) (core.Client, error) {
	h := hookTimer{tr: tr, span: "client." + c.Name(), stats: stats}
	var w core.Client
	switch c := c.(type) {
	case ctraceClient:
		w = &ctraceWrap{traceWrap: traceWrap{hookTimer: h, c: c}, c: c}
	case traceClient:
		w = &traceWrap{hookTimer: h, c: c}
	default:
		return nil, fmt.Errorf("client %s: no timing wrapper for hook set %v", c.Name(), hookSet(c))
	}
	if want, got := hookSet(c), hookSet(w); !slices.Equal(want, got) {
		return nil, fmt.Errorf("client %s: wrapper hooks %v != client hooks %v", c.Name(), got, want)
	}
	return w, nil
}
