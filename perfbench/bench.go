package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/oracle"
)

// runLimit bounds any single simulated run, as the harness does.
const runLimit = 600_000_000

// program is one suite program with its native reference, taken at set-up.
type program struct {
	img   *image.Image
	ticks machine.Ticks // native simulated time
	instr uint64        // native retired instructions
	state oracle.State  // native architectural endpoint
}

// setup assembles every program of w and runs it natively, capturing the
// reference each runtime run is checked against. It returns the programs,
// the host time image assembly took, and the host time of the whole set-up:
// assembly, native runs and oracle captures, without the collections made
// between programs.
func setup(w *workloadDef) (progs []program, asmTime, total time.Duration, err error) {
	progs = make([]program, len(w.progs))
	for i, b := range w.progs {
		// Collect before each program, as before each run: the heap
		// then peaks at what one program's set-up needs, not at
		// whenever the collector happened to run.
		runtime.GC()
		t0 := time.Now()
		img, err := image.Assemble(b.Name, b.Source())
		asmTime += time.Since(t0)
		if err != nil {
			return nil, 0, 0, err
		}
		m := machine.New(machine.PentiumIV())
		img.Boot(m)
		if err := m.Run(runLimit); err != nil {
			return nil, 0, 0, fmt.Errorf("native %s: %w", b.Name, err)
		}
		progs[i] = program{img: img, ticks: m.Ticks, instr: m.Stats.Instructions, state: oracle.Capture(m)}
		total += time.Since(t0)
	}
	return progs, asmTime, total, nil
}

// runResult is the outcome of one runtime run.
type runResult struct {
	ticks   machine.Ticks
	mstats  machine.Stats
	cstats  core.Stats
	phases  obs.PhaseTicks // profiled runs only (Options.Profile)
	newNS   int64          // host time in core.New
	runNS   int64          // host time in RIO.Run
	allocB  uint64         // heap bytes allocated by core.New + RIO.Run
	checkNS int64          // host time of the oracle capture and comparison
}

// bench runs the passes of one workload and keeps the correctness verdicts.
type bench struct {
	w     *workloadDef
	progs []program
	seed  uint64

	// ref holds each run's first result; every later run of the same spec,
	// traced or not, must reproduce its simulated time and counters.
	ref []*runResult

	attempted, failed int
	errs              []string
}

// fail records a failed run, keeping the first few messages for the report.
func (b *bench) fail(key string, err error) {
	b.failed++
	if len(b.errs) < 8 {
		b.errs = append(b.errs, key+": "+err.Error())
	}
}

// heapAllocs reads the cumulative bytes allocated on the heap.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runOnce runs spec under the runtime and checks it against the native
// reference. With tr set the run is traced: spans are recorded around each
// layer call and client hooks are timed into hooks. With profile set, phase
// accounting is on. Errors and panics are returned as errors.
func (b *bench) runOnce(s runSpec, tr *tracer, hooks map[string]*hookStats, profile bool) (res *runResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	p := &b.progs[s.prog]
	opts := s.opts
	clients := s.clients()
	opts.Profile = profile
	if tr != nil {
		for i, c := range clients {
			st := hooks[c.Name()]
			if st == nil {
				st = &hookStats{}
				hooks[c.Name()] = st
			}
			if clients[i], err = wrapClient(c, tr, st); err != nil {
				return nil, err
			}
		}
	}
	// Start every run from a collected heap, as a fresh process would, so
	// no run pays for collecting the garbage of the one before it.
	runtime.GC()
	m := machine.New(machine.PentiumIV())
	res = &runResult{}
	alloc0 := heapAllocs()

	sp := tr.begin("core.New")
	t0 := time.Now()
	r := core.New(m, p.img, opts, nil, clients...)
	t1 := time.Now()
	tr.end(sp)
	sp = tr.begin("core.Run")
	runErr := r.Run(runLimit)
	t2 := time.Now()
	tr.end(sp)

	res.newNS, res.runNS = int64(t1.Sub(t0)), int64(t2.Sub(t1))
	res.allocB = heapAllocs() - alloc0
	if profile {
		res.phases = r.PhaseTicks()
	}
	if runErr != nil {
		return nil, runErr
	}
	res.ticks, res.mstats, res.cstats = m.Ticks, m.Stats, r.StatsSnapshot()

	sp = tr.begin("oracle.Check")
	t3 := time.Now()
	got := oracle.Capture(m)
	mismatch := oracle.Mismatch(p.state, got)
	res.checkNS = int64(time.Since(t3))
	tr.end(sp)
	if mismatch != "" {
		return nil, errors.New("differs from native: " + mismatch)
	}
	return res, nil
}

// check compares res with the spec's reference result: simulated time and
// every counter must repeat exactly, traced or not.
func (b *bench) check(i int, res *runResult) error {
	ref := b.ref[i]
	if ref == nil {
		b.ref[i] = res
		return nil
	}
	switch {
	case res.ticks != ref.ticks:
		return fmt.Errorf("simulated ticks %d != reference %d", res.ticks, ref.ticks)
	case res.mstats != ref.mstats:
		return fmt.Errorf("machine counters %+v != reference %+v", res.mstats, ref.mstats)
	case res.cstats != ref.cstats:
		return fmt.Errorf("runtime counters %+v != reference %+v", res.cstats, ref.cstats)
	}
	return nil
}

// passResult holds one pass's host-time measurements.
type passResult struct {
	appInstr uint64 // native-retired instructions of the runs that succeeded
	appNS    int64  // host time in core.New + RIO.Run of those runs
	runMS    []float64
	progMS   []float64 // host ms per program, summed over its runs in the pass
}

// mips is the pass's application instructions per host second, in millions.
func (p *passResult) mips() float64 { return float64(p.appInstr) / float64(p.appNS) * 1e3 }

// order returns the pass's run order: every run of the workload once,
// shuffled by the seed and the pass number.
func (b *bench) order(pass int) []int {
	idx := make([]int, len(b.w.runs))
	for i := range idx {
		idx[i] = i
	}
	rng := rand.New(rand.NewPCG(b.seed, uint64(pass)))
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	return idx
}

// pass runs every run of the workload once, in seeded order. With acc set
// the pass is traced and accumulates the per-layer measurements, including a
// timed native run of each program before its first runtime run. With
// profile set, the runs account every tick to a phase.
func (b *bench) pass(n int, acc *layerAcc, profile bool) *passResult {
	var tr *tracer
	var hooks map[string]*hookStats
	var native []int64
	if acc != nil {
		tr, hooks = acc.tr, acc.hooks
		native = make([]int64, len(b.progs))
		acc.passes++
	}
	ps := &passResult{progMS: make([]float64, len(b.progs))}
	pspan := tr.begin(fmt.Sprintf("pass %d", n))
	for _, i := range b.order(n) {
		s := b.w.runs[i]
		p := &b.progs[s.prog]
		rspan := tr.beginRun("run " + b.w.key(s))
		b.attempted++
		var err error
		if acc != nil && native[s.prog] == 0 {
			native[s.prog], err = acc.timeNative(p)
		}
		var res *runResult
		if err == nil {
			res, err = b.runOnce(s, tr, hooks, profile)
		}
		if err == nil {
			err = b.check(i, res)
		}
		tr.end(rspan)
		if err != nil {
			b.fail(b.w.key(s), err)
			continue
		}
		ns := res.newNS + res.runNS
		ps.appInstr += p.instr
		ps.appNS += ns
		ps.runMS = append(ps.runMS, float64(ns)/1e6)
		ps.progMS[s.prog] += float64(ns) / 1e6
		if acc != nil {
			acc.addRun(res, native[s.prog])
		}
	}
	tr.end(pspan)
	return ps
}
