// Package core implements the DynamoRIO runtime of the paper over the
// simulated machine: the dispatcher, basic-block builder, thread-private
// code caches, fragment linking, the in-cache indirect-branch lookup
// routine, NET-style trace building with custom-trace hooks, exit stubs
// (including client-customized stubs), and the adaptive fragment-replacement
// interface.
//
// The control flow is exactly Figure 1 of the paper: application code is
// copied a basic block at a time into a code cache living in simulated
// memory and executed there natively by the machine; exits that cannot be
// linked return to the dispatcher (a Go function reached through a machine
// trap — the "context switch"), which finds or builds the next fragment and
// re-enters the cache.
package core

import (
	"io"

	"repro/internal/chaos"
	"repro/internal/machine"
	"repro/internal/obs"
)

// Mode selects the execution strategy, forming the ladder of the paper's
// Table 1.
type Mode int

const (
	// ModeCache runs application code from the code cache (the normal
	// DynamoRIO mode; linking and traces are controlled separately).
	ModeCache Mode = iota
	// ModeEmulate interprets every instruction, modelling a pure
	// emulator: no code cache, a fixed dispatch overhead per instruction.
	ModeEmulate
)

// Options configures the runtime.
type Options struct {
	Mode Mode

	// LinkDirect links fragments connected by direct branches with a
	// direct jump, avoiding a context switch ("+ Link direct branches").
	LinkDirect bool

	// LinkIndirect installs the in-cache indirect-branch lookup routine
	// and hashtable ("+ Link indirect branches"). Without it every
	// indirect branch exits to the dispatcher.
	LinkIndirect bool

	// EnableTraces turns on hot-path trace building ("+ Traces").
	EnableTraces bool

	// TraceThreshold is the trace-head execution count that triggers
	// trace creation (Dynamo used 50).
	TraceThreshold int

	// MaxTraceBlocks caps how many basic blocks one trace may absorb.
	MaxTraceBlocks int

	// SharedCache places all threads in one shared code cache instead of
	// thread-private caches (an ablation of the paper's Section 2 design
	// choice). Fragment creation then pays SyncTicks for the
	// synchronization the paper argues thread-private caches avoid.
	SharedCache bool

	// IBLTableBits is the log2 size of the indirect-branch lookup
	// hashtable (default 8: 256 entries, hashing the low bits of the
	// target address). Clamped to 11 (2048 entries), the TLS reservation
	// for the table.
	IBLTableBits uint

	// IBLAdaptive lets the indirect-branch lookup hashtable grow itself:
	// when live entries exceed half the capacity, the table doubles, every
	// entry is rehashed and the lookup routines are re-emitted with the new
	// mask (see DESIGN.md). Ignored under SharedCache or IBLDirectMapped,
	// which keep the legacy fixed direct-mapped table.
	IBLAdaptive bool

	// IBLDirectMapped reverts the lookup hashtable to the legacy
	// single-probe direct-mapped organization (last writer wins on a
	// collision, so a collided target misses to the dispatcher forever).
	// Kept as the ablation baseline for the IBL sweep.
	IBLDirectMapped bool

	// FlagsElision enables eflags-liveness flag-save elision (Section 4.4):
	// when the target of an indirect branch provably rewrites all six
	// arithmetic flags before reading any — with no intervening fault
	// hazard — the IBL target prefix and the trace inline check skip the
	// popfd on their hit paths, replacing it with a flag-neutral lea that
	// discards the pushed flags word.
	FlagsElision bool

	// BBCacheSize and TraceCacheSize give the basic-block and trace caches
	// individual byte budgets managed by FIFO eviction (Section 6): when a
	// cache fills, the oldest fragments are evicted one at a time and their
	// space reused. 0 means the whole 2 MiB per-thread address reservation,
	// effectively the paper's "unlimited cache space" for these workloads.
	// Under SharedCache, where another thread may be executing the
	// eviction victim, nothing is evicted: a full cache grows instead, up
	// to the reservation.
	BBCacheSize    int
	TraceCacheSize int

	// AdaptiveCache lets a bounded cache grow itself: per epoch of
	// ResizeEpoch evictions, if more than RegenThreshold of the evicted
	// fragments were regenerations (rebuilds of previously evicted code),
	// the working set does not fit and the cache capacity doubles
	// (Section 6.2's regeneration/replacement ratio).
	AdaptiveCache  bool
	RegenThreshold float64 // default 0.5
	ResizeEpoch    int     // default 32 evictions per epoch

	// Chaos, when set, drives the named injection sites at every fragile
	// runtime boundary (see internal/chaos): a firing trigger panics at the
	// site, exercising transactional rollback and the degradation ladder.
	// Injection only happens inside dispatcher-owned work (plus fault
	// translation, which has its own retry transaction); setup-time and
	// client-initiated paths are never injected.
	Chaos *chaos.Injector

	// Degradation-ladder tuning (all have defaults applied by New):
	//
	// NativeWindow is the instruction budget of one native cool-down window
	// — the stretch a recovering thread runs natively before returning to
	// the dispatcher. RecoveryRetryBudget is how many consecutive recovery
	// failures a health level tolerates before the thread steps down a
	// level. RecoveryBackoff is the base per-tag retry delay in dispatch
	// entries, doubled per failure of that tag. QuarantineThreshold is the
	// per-tag failure count that quarantines the tag permanently (it runs
	// natively from then on). ReattachCooldown is the number of clean
	// dispatch entries after which a degraded thread steps back up one
	// level (interpret-only back to full is the re-attach).
	NativeWindow        uint64
	RecoveryRetryBudget int
	RecoveryBackoff     uint64
	QuarantineThreshold int
	ReattachCooldown    uint64

	// ForceFlagsDead overrides the flagsDeadFrom liveness analysis to
	// always report the arithmetic flags dead, making flag-save elision
	// unsound: IBL target prefixes and trace inline checks discard the
	// application eflags even when the target reads them. It is an
	// intentionally injected mangler bug — the differential fuzzer's
	// mutation-testing lever, proving the native-vs-runtime oracle detects
	// real transparency violations. Never set it outside tests.
	ForceFlagsDead bool

	// Profile turns on the observability layer: per-tick phase accounting
	// (every simulated tick attributed to a named execution phase, the
	// paper's Section 4 breakdown) and per-fragment profiles (execution
	// counts, tick attribution, stub traversals, IBL hits/misses).
	// Profiling observes execution from outside the cache — no
	// instrumentation code is emitted — so it changes neither the
	// program's behaviour nor its tick totals.
	Profile bool

	// EventRing sizes the per-thread runtime event trace ring (fragment
	// emit/link/unlink/evict/resize, detach, fault translation, signal
	// delivery). 0 disables tracing at the cost of one branch per event
	// site.
	EventRing int

	// TraceEventWriter, when set, streams the run as Chrome trace-event
	// JSON (Perfetto-loadable): complete events for the
	// dispatch/block-build/trace-build/evict/fault-translation spans with
	// tick timestamps, instant events for the discrete ring events, one
	// track per simulated thread plus a counter track for live cache
	// bytes. The runtime owns the stream and terminates the JSON document
	// at exit. Span export reads the clock without charging it, so it
	// never perturbs simulated behaviour.
	TraceEventWriter io.Writer

	// TraceEvents routes span export into a caller-owned TraceWriter
	// instead — several runtimes (one per benchmark) can share one
	// Perfetto file, distinguished by process id. The caller closes the
	// writer; TraceEventPID and TraceEventProcess name this runtime's
	// process track (pid defaults to 1). Ignored when TraceEventWriter is
	// also set.
	TraceEvents       *obs.TraceWriter
	TraceEventPID     int
	TraceEventProcess string

	// Watchdog turns on the pathology monitor (see obs.Watchdog): the
	// dispatcher feeds it counter snapshots on a tick budget and it fires
	// typed detections — eviction thrash, IBL resize storms, quarantine
	// flapping, dispatch dominance — surfaced as EvAnomaly ring events,
	// the WatchdogHook client callback and Stats.Anomalies. Detection
	// never charges simulated time.
	Watchdog       bool
	WatchdogConfig obs.WatchdogConfig

	Cost CostModel

	// Test-only mutation levers, set through export_test.go so they never
	// appear in the public configuration.
	//
	// internalFaultHook, when set, is consulted at every dispatcher entry
	// and panics when it returns true: it exercises the internal-failure
	// recovery path without corrupting real state. It is the original
	// single-point ancestor of the Chaos injector, kept for direct control
	// in tests.
	internalFaultHook func(ctx *Context, tag machine.Addr) bool

	// breakRollback deliberately skips the IBL scrub step of emit's
	// registration rollback, leaving a stale hashtable entry behind after an
	// injected emit/registration failure. It proves CheckCacheInvariants
	// catches a broken rollback path (the recovery audit must fail and the
	// thread must detach).
	breakRollback bool
}

// CostModel holds the modeled overhead constants: runtime work that really
// happens in Go (hashtable lookups in the dispatcher, decode/encode during
// fragment construction, client analysis) but must cost simulated time. All
// cache-resident work — stubs, the indirect-branch lookup, inline checks,
// profiling calls — is real emitted code whose cost arises from execution
// and is NOT modeled here. Values are in ticks (quarter cycles).
type CostModel struct {
	// EmulateDispatch is charged per instruction in ModeEmulate: the
	// fetch/decode/dispatch work of a pure interpreter (the paper's
	// "several hundred times slowdown").
	EmulateDispatch machine.Ticks

	// Dispatch is charged per context switch into the dispatcher: saving
	// the rest of the context, the fragment-lookup hashtable access and
	// the return to the cache.
	Dispatch machine.Ticks

	// BuildBlock/BuildInstr are charged when constructing a basic block
	// fragment (per block and per instruction): decoding, mangling,
	// emission, bookkeeping.
	BuildBlock machine.Ticks
	BuildInstr machine.Ticks

	// TraceBlock/TraceInstr are the same for trace construction, which
	// fully decodes to Level 3 and re-encodes.
	TraceBlock machine.Ticks
	TraceInstr machine.Ticks

	// ClientInstr is charged per instruction each time a client hook
	// inspects a block or trace.
	ClientInstr machine.Ticks

	// CleanCall is charged per clean call: spilling and restoring enough
	// context to run client code safely.
	CleanCall machine.Ticks

	// ReplaceFragment is charged per adaptive fragment replacement, on
	// top of the per-instruction trace construction costs.
	ReplaceFragment machine.Ticks

	// Evict is charged per fragment evicted under capacity pressure: the
	// unlinking, lookup-table scrubbing and allocator bookkeeping of
	// Section 6's FIFO replacement.
	Evict machine.Ticks

	// IBLResize is charged per adaptive doubling of the indirect-branch
	// lookup hashtable: rehashing every entry and re-emitting the three
	// lookup routines with the new mask.
	IBLResize machine.Ticks

	// FaultTranslate is charged per fault whose cache context is
	// translated back to native application form (the state translation
	// of Section 3.3.4).
	FaultTranslate machine.Ticks

	// Sync is charged per cache *change* (fragment creation, link,
	// unlink, replacement) in the SharedCache ablation: with a shared
	// cache every change must be synchronized with all running threads
	// (the paper's Section 2 reports suspending/coordinating threads is
	// what makes shared caches lose to thread-private ones).
	Sync machine.Ticks
}

// DefaultCost returns the calibrated cost constants. They were tuned so the
// Table 1 ladder lands in the paper's bands (see EXPERIMENTS.md); they are
// deliberately coarse — the paper's own analysis attributes the residual
// overheads to indirect branches and eflags handling, which this system
// reproduces with real instructions.
func DefaultCost() CostModel {
	// Construction costs are scaled to the synthetic workloads' runtime:
	// the simulated programs run ~10^6 instructions where the real SPEC
	// binaries ran ~10^11, so per-block costs here are scaled down to
	// keep the ratio of construction time to total runtime in the same
	// regime the paper reports (negligible for loopy code, significant
	// for the low-reuse gcc/perlbmk profile). See EXPERIMENTS.md.
	return CostModel{
		EmulateDispatch: 3600, // ~900 cycles per interpreted instruction
		Dispatch:        800,  // ~200 cycles per context switch
		BuildBlock:      1200,
		BuildInstr:      80,
		TraceBlock:      2400,
		TraceInstr:      160,
		ClientInstr:     100,
		CleanCall:       160, // ~40 cycles to save/restore around a call
		ReplaceFragment: 8000,
		Evict:           200,   // ~50 cycles to unlink and scrub one victim
		IBLResize:       2000,  // ~500 cycles to rehash and re-emit the routines
		FaultTranslate:  400,   // ~100 cycles to walk the xl8 table and rebuild state
		Sync:            20000, // ~5000 cycles to coordinate all threads
	}
}

// Default returns the full-featured configuration (the paper's "base
// DynamoRIO"): caching, direct and indirect linking, traces, the adaptive
// open-address IBL hashtable and eflags-liveness flag-save elision.
func Default() Options {
	return Options{
		Mode:           ModeCache,
		LinkDirect:     true,
		LinkIndirect:   true,
		EnableTraces:   true,
		TraceThreshold: 50,
		MaxTraceBlocks: 32,
		IBLTableBits:   8,
		IBLAdaptive:    true,
		FlagsElision:   true,
		Cost:           DefaultCost(),
	}
}

// TableOneLadder returns the five configurations of the paper's Table 1 in
// order: emulation, +bb cache, +direct links, +indirect links, +traces.
func TableOneLadder() []Options {
	emu := Default()
	emu.Mode = ModeEmulate

	cache := Default()
	cache.LinkDirect, cache.LinkIndirect, cache.EnableTraces = false, false, false

	direct := Default()
	direct.LinkIndirect, direct.EnableTraces = false, false

	indirect := Default()
	indirect.EnableTraces = false

	return []Options{emu, cache, direct, indirect, Default()}
}
