package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/oracle"
	"repro/internal/workload"
)

// FaultStorm is the fault-injection differential experiment: for each
// workload, a set of seeded fault schedules is derived from the program's own
// system-call trace, and each schedule is replayed on a fresh native machine
// and on fresh machines under the runtime (unbounded and pressured bounded
// caches). The paper's Section 3 transparency contract says the runtime may
// never change what the application observes — so the faulted runs must agree
// bit-for-bit on final registers, output, application memory, the syscall
// trace and the delivered-fault sequence (kinds, data addresses and *native*
// faulting EIPs, which under the runtime only match because the fragment
// translation tables rewind cache contexts to application form).

// FaultPlan schedules one injected fault: raise Kind (with data address Addr
// for page faults) in place of thread Thread's Syscall'th system call.
// Keying on the per-thread syscall ordinal makes the same plan land at the
// same application point in native and translated runs, whose instruction
// counts diverge.
type FaultPlan struct {
	Thread  int               `json:"thread"`
	Syscall uint64            `json:"syscall"`
	Kind    machine.FaultKind `json:"kind"`
	Addr    machine.Addr      `json:"addr"`
}

// FaultSchedule is one seeded set of plans for one workload.
type FaultSchedule struct {
	Seed  int64
	Plans []FaultPlan
}

// stormKinds are the fault kinds a schedule draws from.
var stormKinds = []machine.FaultKind{
	machine.FaultDivide, machine.FaultPage, machine.FaultUD, machine.FaultSoftware,
}

// BuildSchedules derives deterministic fault schedules for a benchmark from
// the syscall trace of a clean native run: each seed picks 1–3 distinct
// (thread, syscall-ordinal) points and a fault kind for each. The clean trace
// is the right sampling frame because every point in it is reached by
// construction in every configuration.
func BuildSchedules(b *workload.Benchmark, seeds []int64) ([]FaultSchedule, error) {
	m := machine.New(machine.PentiumIV())
	b.Image().Boot(m)
	if err := m.Run(runLimit); err != nil {
		return nil, fmt.Errorf("faultstorm: clean native %s: %v", b.Name, err)
	}
	trace := m.SyscallTrace
	if len(trace) == 0 {
		return nil, fmt.Errorf("faultstorm: %s made no system calls", b.Name)
	}
	return schedulesFromTrace(trace, seeds), nil
}

// schedulesFromTrace derives the seeded plans from a clean syscall trace; it
// is shared with the ChaosStorm harness, which injects machine faults into
// its runs so internal-failure injection composes with fault translation.
func schedulesFromTrace(trace []machine.SyscallRecord, seeds []int64) []FaultSchedule {
	// Per-thread ordinal of each trace record.
	ordinals := make([]uint64, len(trace))
	perThread := map[int]uint64{}
	for i, rec := range trace {
		ordinals[i] = perThread[rec.Thread]
		perThread[rec.Thread]++
	}

	// Distinct injection points available: many workloads only make a
	// handful of system calls, and a schedule can hold at most one fault
	// per point.
	points := map[FaultPlan]bool{}
	for i, rec := range trace {
		points[FaultPlan{Thread: rec.Thread, Syscall: ordinals[i]}] = true
	}

	schedules := make([]FaultSchedule, 0, len(seeds))
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(3)
		if n > len(points) {
			n = len(points)
		}
		sched := FaultSchedule{Seed: seed}
		used := map[FaultPlan]bool{}
		for len(sched.Plans) < n {
			rec := rng.Intn(len(trace))
			kind := stormKinds[rng.Intn(len(stormKinds))]
			var addr machine.Addr
			if kind == machine.FaultPage {
				addr = machine.Addr(rng.Intn(1 << 24))
			}
			p := FaultPlan{
				Thread:  trace[rec].Thread,
				Syscall: ordinals[rec],
				Kind:    kind,
				Addr:    addr,
			}
			key := FaultPlan{Thread: p.Thread, Syscall: p.Syscall}
			if used[key] {
				continue // one fault per syscall point
			}
			used[key] = true
			sched.Plans = append(sched.Plans, p)
		}
		schedules = append(schedules, sched)
	}
	return schedules
}

// FaultEvent is one delivered fault in comparable form. The capture and
// comparison of the full architectural endpoint (thread states, output,
// memory digest, syscall trace, fault sequence, dead-stack-band zeroing)
// live in internal/oracle, shared with the eviction and IBL differential
// oracles and the differential fuzzer.
type FaultEvent = oracle.FaultEvent

// StormConfig is one runtime column of the differential.
type StormConfig struct {
	Name string
	Opts func() core.Options
}

// DefaultStormConfigs compares the unbounded runtime, a pressured
// 4 KiB-bounded runtime, and an elision-off/direct-mapped runtime against
// native, so fault translation is exercised with stable fragments, across
// FIFO eviction churn, and through both forms of the IBL target prefix:
// the default columns run with flag-save elision and the open-address
// table (faults can land inside an elided, no-popfd prefix), while the
// last column pins the legacy direct-mapped lookup with no prefixes at
// all.
func DefaultStormConfigs() []StormConfig {
	return []StormConfig{
		{"unbounded", core.Default},
		{"4k", func() core.Options {
			o := core.Default()
			o.BBCacheSize, o.TraceCacheSize = 4<<10, 4<<10
			return o
		}},
		{"direct-noelide", func() core.Options {
			o := core.Default()
			o.IBLDirectMapped = true
			o.IBLAdaptive = false
			o.FlagsElision = false
			return o
		}},
	}
}

// StormOutcome is one (schedule, runtime config) comparison result.
type StormOutcome struct {
	Config           string `json:"config"`
	Match            bool   `json:"match"`
	Mismatch         string `json:"mismatch,omitempty"`
	FaultsTranslated uint64 `json:"faults_translated"`
	Detaches         uint64 `json:"detaches"`
	Evictions        uint64 `json:"evictions"`
	FlagsElisions    uint64 `json:"flags_elisions"`
}

// StormScheduleResult is one schedule's differential across all configs.
type StormScheduleResult struct {
	Seed     int64          `json:"seed"`
	Plans    []FaultPlan    `json:"plans"`
	Faults   []FaultEvent   `json:"faults"` // the native delivered-fault sequence
	Outcomes []StormOutcome `json:"outcomes"`
}

// StormRow is one benchmark's line of the experiment.
type StormRow struct {
	Benchmark string                `json:"benchmark"`
	Class     workload.Class        `json:"-"`
	Schedules []StormScheduleResult `json:"schedules"`
}

// Passed reports whether every schedule matched under every config.
func (r StormRow) Passed() bool {
	for _, s := range r.Schedules {
		for _, o := range s.Outcomes {
			if !o.Match {
				return false
			}
		}
	}
	return true
}

// injectPlans arms a machine with a schedule's faults.
func injectPlans(m *machine.Machine, plans []FaultPlan) {
	for _, p := range plans {
		m.InjectFaultAtSyscall(p.Thread, p.Syscall, p.Kind, p.Addr)
	}
}

// runStormSchedule replays one schedule natively and under each config.
func runStormSchedule(b *workload.Benchmark, sched FaultSchedule, configs []StormConfig) (StormScheduleResult, error) {
	res := StormScheduleResult{Seed: sched.Seed, Plans: sched.Plans}

	nm := machine.New(machine.PentiumIV())
	b.Image().Boot(nm)
	injectPlans(nm, sched.Plans)
	if err := nm.Run(runLimit); err != nil {
		return res, fmt.Errorf("faultstorm: native faulted %s seed %d: %v", b.Name, sched.Seed, err)
	}
	want := oracle.Capture(nm)
	res.Faults = want.Faults

	for _, cfg := range configs {
		m := machine.New(machine.PentiumIV())
		r := core.New(m, b.Image(), cfg.Opts(), nil)
		injectPlans(m, sched.Plans)
		if err := r.Run(runLimit); err != nil {
			return res, fmt.Errorf("faultstorm: %s seed %d under %s: %v", b.Name, sched.Seed, cfg.Name, err)
		}
		got := oracle.Capture(m)
		stats := r.StatsSnapshot()
		res.Outcomes = append(res.Outcomes, StormOutcome{
			Config:           cfg.Name,
			Match:            oracle.Equal(want, got),
			Mismatch:         oracle.Mismatch(want, got),
			FaultsTranslated: stats.FaultsTranslated,
			Detaches:         stats.Detaches,
			Evictions:        stats.Evictions,
			FlagsElisions:    stats.FlagsElisions + stats.InlineChecksElided,
		})
	}
	return res, nil
}

// FaultStorm runs the experiment over the given benchmarks and seeds as two
// Matrix passes (workers <= 0 means one per GOMAXPROCS), one fresh machine
// per run — the native-baseline cache is deliberately not used, since every
// run here is perturbed. Results are in input order and deterministic for
// any worker count; a failing cell is reported in the joined error while
// the rest of the matrix still runs.
func FaultStorm(workers int, benches []*workload.Benchmark, seeds []int64, configs []StormConfig) ([]StormRow, error) {
	// Pass 1: derive each benchmark's schedules from its clean trace.
	scheds, err1 := Matrix(workers, len(benches), func(i int) ([]FaultSchedule, error) {
		return BuildSchedules(benches[i], seeds)
	})
	// Pass 2: replay every (benchmark, schedule) cell.
	ns := len(seeds)
	res, err2 := Matrix(workers, len(benches)*ns, func(k int) (StormScheduleResult, error) {
		i, j := k/ns, k%ns
		if scheds[i] == nil {
			return StormScheduleResult{}, nil // schedule derivation failed; already reported
		}
		return runStormSchedule(benches[i], scheds[i][j], configs)
	})
	rows := make([]StormRow, len(benches))
	for i, b := range benches {
		rows[i] = StormRow{Benchmark: b.Name, Class: b.Class, Schedules: res[i*ns : (i+1)*ns]}
	}
	return rows, errors.Join(err1, err2)
}

// FormatFaultStorm renders the experiment as a pass/fail matrix with the
// translation counters that prove the interesting paths ran.
func FormatFaultStorm(seeds []int64, configs []StormConfig, rows []StormRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "FaultStorm: %d seeded fault schedules per benchmark, native vs runtime (%s)\n",
		len(seeds), configNames(configs))
	fmt.Fprintf(&b, "%-10s %-4s %8s %8s %10s %8s %8s  %s\n",
		"benchmark", "cls", "faults", "match", "translated", "detach", "evict", "status")
	pass := 0
	for _, r := range rows {
		var faults, match, total int
		var translated, detaches, evictions uint64
		for _, s := range r.Schedules {
			faults += len(s.Faults)
			for _, o := range s.Outcomes {
				total++
				if o.Match {
					match++
				}
				translated += o.FaultsTranslated
				detaches += o.Detaches
				evictions += o.Evictions
			}
		}
		status := "ok"
		if !r.Passed() {
			status = "MISMATCH"
			for _, s := range r.Schedules {
				for _, o := range s.Outcomes {
					if !o.Match {
						status = fmt.Sprintf("MISMATCH seed %d/%s: %s", s.Seed, o.Config, o.Mismatch)
						break
					}
				}
			}
		} else {
			pass++
		}
		fmt.Fprintf(&b, "%-10s %-4s %8d %5d/%-2d %10d %8d %8d  %s\n",
			r.Benchmark, r.Class, faults, match, total, translated, detaches, evictions, status)
	}
	fmt.Fprintf(&b, "passed %d/%d benchmarks\n", pass, len(rows))
	return b.String()
}

func configNames(configs []StormConfig) string {
	names := make([]string, len(configs))
	for i, c := range configs {
		names[i] = c.Name
	}
	return strings.Join(names, ", ")
}
