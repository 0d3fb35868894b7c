package core

import "repro/internal/machine"

// SetInternalFaultHook arms o's dispatcher-entry fault hook: h is consulted
// at every dispatcher entry and the runtime panics there when it returns
// true.
func SetInternalFaultHook(o *Options, h func(ctx *Context, tag machine.Addr) bool) {
	o.internalFaultHook = h
}

// SetBreakRollback makes emit's registration rollback skip its IBL scrub,
// the defect the recovery audit must catch.
func SetBreakRollback(o *Options) { o.breakRollback = true }
