package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"

	"repro/internal/instr"
	"repro/internal/obs"
)

// metric is one named measurement with its unit.
type metric struct {
	name  string
	unit  string
	value float64
}

// config is one benchmark invocation's settings.
type config struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	minRuns int // untraced passes go on past seconds until they timed this many runs
}

// minTimedRuns is how many measured runs the command puts behind run_ms_p90
// at least, however long they take.
const minTimedRuns = 100

// setupReps is how many times set-up runs; setup_s is their median.
const setupReps = 5

// outcome is everything one invocation measured.
type outcome struct {
	attempted, failed int
	errs              []string
	metrics           []metric  // end-to-end untraced, per-layer traced
	passes            int       // measured passes behind the host-time metrics
	runsTimed         int       // runs behind run_ms_p50/p90
	blocksDropped     int       // harvested blocks the codec could not re-encode
	progMS            []float64 // median over untraced passes of each program's host ms
	spans             []span
}

// measure sets the workload up, runs its passes for cfg.seconds and computes
// the metrics. Untraced, passes run back to back and give the end-to-end
// metrics; traced, untraced and traced passes alternate and give the
// per-layer metrics. A warm-up pass, which also takes each run's reference
// result, comes first in both and counts neither in the metrics nor in the
// measured time.
func measure(w *workloadDef, cfg config) (*outcome, error) {
	for _, b := range w.progs {
		b.Source() // generate the program text once, outside set-up timing
		runtime.GC()
	}
	var setupS, asmMS []float64
	var progs []program
	for i := 0; i < setupReps; i++ {
		p, asm, total, err := setup(w)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, total.Seconds())
		asmMS = append(asmMS, asm.Seconds()*1e3)
		progs = p
	}

	b := &bench{w: w, progs: progs, seed: cfg.seed, ref: make([]*runResult, len(w.runs))}
	var acc *layerAcc
	var tr *tracer // nil when untraced; then it records nothing
	if cfg.traced {
		acc = newLayerAcc()
		tr = acc.tr
	}
	root := tr.begin("workload " + w.name)
	// Traced, the warm-up runs are profiled: their phase breakdown is the
	// reference, and every later run checks that profiling changed no tick.
	sp := tr.begin("pass 0 warm-up")
	b.pass(0, nil, cfg.traced)
	tr.end(sp)
	// Every run has now run once. Later passes repeat the same runs, and
	// any higher peak they reach comes from when the collector happened to
	// finish a cycle, not from what the runs keep.
	rssMB := peakRSSMB()
	deadline := time.Now().Add(cfg.seconds)
	var plain, traced []*passResult
	for n := 1; ; n++ {
		t0 := time.Now()
		sp := tr.begin(fmt.Sprintf("pass %d untraced", n))
		plain = append(plain, b.pass(n, nil, false))
		tr.end(sp)
		if acc != nil {
			n++
			traced = append(traced, b.pass(n, acc, false))
		}
		// Start another round only if it should end before the deadline,
		// unless the untraced passes have yet to time cfg.minRuns runs.
		if len(plain)*len(w.runs) >= cfg.minRuns && time.Now().Add(time.Since(t0)).After(deadline) {
			break
		}
	}

	out := &outcome{attempted: b.attempted, failed: b.failed, errs: b.errs, passes: len(plain)}
	for _, p := range plain {
		out.runsTimed += len(p.runMS)
	}
	for i := range progs {
		var ms []float64
		for _, p := range plain {
			ms = append(ms, p.progMS[i])
		}
		out.progMS = append(out.progMS, median(ms))
	}
	if acc == nil {
		out.metrics = endToEnd(b, plain, setupS, rssMB)
	} else {
		codec, dropped := measureCodec(harvestBlocks(progs), tr)
		tr.end(root)
		out.blocksDropped = dropped
		out.passes = len(traced)
		out.metrics = perLayer(b, acc, plain, traced, codec, asmMS)
		out.spans = acc.tr.spans
	}
	return out, nil
}

// endToEnd computes the metrics a user of the runtime sees.
func endToEnd(b *bench, plain []*passResult, setupS []float64, rssMB float64) []metric {
	var mips, runMS []float64
	for _, p := range plain {
		mips = append(mips, p.mips())
		runMS = append(runMS, p.runMS...)
	}
	geo, worst := simOverhead(b)
	return []metric{
		{"app_mips", "Minstr/s", median(mips)},
		{"run_ms_p50", "ms", hdQuantile(runMS, 0.5)},
		{"run_ms_p90", "ms", hdQuantile(runMS, 0.9)},
		{"sim_overhead", "ratio", geo},
		{"sim_overhead_max", "ratio", worst},
		{"setup_s", "s", median(setupS)},
		{"host_rss_mb", "MB", rssMB},
	}
}

// simOverhead is the geometric mean and the maximum over runs of runtime
// simulated time over native simulated time, Figure 5's y-axis. Runs are
// taken in workload order, whatever order the seed ran them in, so the
// result repeats bit for bit.
func simOverhead(b *bench) (geo, worst float64) {
	var sum float64
	n := 0
	for i, s := range b.w.runs {
		if b.ref[i] == nil {
			continue
		}
		r := float64(b.ref[i].ticks) / float64(b.progs[s.prog].ticks)
		sum += math.Log(r)
		worst = max(worst, r)
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return math.Exp(sum / float64(n)), worst
}

// clientNames are the Figure 5 clients whose hooks are timed.
var clientNames = []string{"rlr", "inc2add", "ibdispatch", "ctrace"}

// perLayer computes the per-layer metrics from the traced passes. Counts
// come from the reference results, one per run of the workload, so they
// repeat exactly; host times are means per traced pass.
func perLayer(b *bench, acc *layerAcc, plain, traced []*passResult, codec map[instr.Level]codecResult, asmMS []float64) []metric {
	var phases obs.PhaseTicks
	var (
		appInstr, rtInstr, decodeMiss, indBr, indMis                       uint64
		blocks, traces, evictions, regens, switches, links, iblMiss, clean uint64
	)
	for i, s := range b.w.runs {
		r := b.ref[i]
		if r == nil {
			continue
		}
		for p, v := range r.phases {
			phases[p] += v
		}
		appInstr += b.progs[s.prog].instr
		rtInstr += r.mstats.Instructions
		decodeMiss += r.mstats.DecodeMisses
		indBr += r.mstats.IndBranches
		indMis += r.mstats.IndMispred
		c := r.cstats
		blocks += c.BlocksBuilt
		traces += c.TracesBuilt
		evictions += c.Evictions
		regens += c.Regenerations
		switches += c.ContextSwitches
		links += c.Links
		iblMiss += c.IBLMisses
		clean += c.CleanCalls
	}
	passes := float64(acc.passes)
	extraS := float64(acc.extraNS) / passes / 1e9
	m := []metric{
		{"machine.native_mips", "Minstr/s", div(float64(acc.nativeInstr)*1e3, float64(acc.nativeNS))},
		{"machine.alloc_mb", "MB", div(float64(acc.nativeAllocB)/1e6, float64(acc.nativeRuns))},
		{"machine.instr_per_app", "ratio", div(float64(rtInstr), float64(appInstr))},
		{"machine.decode_miss_rate", "ratio", div(float64(decodeMiss), float64(rtInstr))},
		{"machine.ind_mispred_rate", "ratio", div(float64(indMis), float64(indBr))},
		{"core.run_s", "s", float64(acc.coreRunNS) / passes / 1e9},
		{"core.extra_s", "s", extraS},
		{"core.us_per_build", "us", div(extraS*1e6, float64(blocks+traces))},
		{"core.alloc_mb", "MB", div(float64(acc.coreAllocB)/1e6, float64(acc.coreRuns))},
		{"core.blocks_built", "count", float64(blocks)},
		{"core.traces_built", "count", float64(traces)},
		{"core.evictions", "count", float64(evictions)},
		{"core.regen_ratio", "ratio", div(float64(regens), float64(evictions))},
		{"core.context_switches", "count", float64(switches)},
		{"core.links", "count", float64(links)},
		{"core.ibl_misses", "count", float64(iblMiss)},
		{"core.clean_calls", "count", float64(clean)},
	}
	total := float64(phases.Sum())
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		m = append(m, metric{"core.phase." + p.String(), "share", div(float64(phases[p]), total)})
	}
	m = append(m,
		metric{"instr.level1_us_per_block", "us", codec[instr.Level1].usPerBlock},
		metric{"instr.level3_us_per_block", "us", codec[instr.Level3].usPerBlock},
		metric{"instr.level4_us_per_block", "us", codec[instr.Level4].usPerBlock},
		metric{"instr.level4_bytes_per_block", "B", codec[instr.Level4].bytesPerBlock},
	)
	for _, name := range clientNames {
		var st hookStats
		if h := acc.hooks[name]; h != nil {
			st = *h
		}
		m = append(m,
			metric{"clients." + name + ".hook_ms", "ms", float64(st.ns) / passes / 1e6},
			metric{"clients." + name + ".hook_calls", "count", float64(st.calls) / passes},
		)
	}
	var plainMIPS, tracedMIPS []float64
	for _, p := range plain {
		plainMIPS = append(plainMIPS, p.mips())
	}
	for _, p := range traced {
		tracedMIPS = append(tracedMIPS, p.mips())
	}
	return append(m,
		metric{"asm.assemble_ms", "ms", median(asmMS)},
		metric{"oracle.check_ms", "ms", div(float64(acc.checkNS)/1e6, float64(acc.coreRuns))},
		metric{"obs.trace_overhead", "ratio", div(median(tracedMIPS), median(plainMIPS))},
		metric{"bench.fail_frac", "ratio", div(float64(b.failed), float64(b.attempted))},
	)
}

// div is a/b, or 0 when b is 0 (a layer that did no work).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile is the q-quantile of xs, interpolating linearly between order
// statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// hdQuantile estimates the q-quantile of xs with the Harrell-Davis
// estimator: a mean of all order statistics weighted by the
// Beta((n+1)q, (n+1)(1-q)) density, taken at the middle of each order
// statistic's interval. Run times fall in one cluster per program, and a
// single order statistic at a cluster edge jumps with the noise of the
// extreme runs; the weighted mean moves smoothly. 0 for no samples.
func hdQuantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	logw := make([]float64, n)
	top := math.Inf(-1)
	for i := range s {
		x := (float64(i) + 0.5) / float64(n)
		logw[i] = (a-1)*math.Log(x) + (b-1)*math.Log1p(-x)
		top = max(top, logw[i])
	}
	var sum, wsum float64
	for i, v := range s {
		w := math.Exp(logw[i] - top)
		sum += w * v
		wsum += w
	}
	return sum / wsum
}

// peakRSSMB is the process's peak resident memory in MB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}
