package harness

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/machine"
	"repro/internal/oracle"
	"repro/internal/workload"
)

// ChaosStorm is the internal-fault-injection differential experiment, the
// robustness counterpart of FaultStorm: instead of perturbing the application
// (machine faults at syscall points), it perturbs the runtime itself — seeded
// chaos schedules fire synthetic internal failures at the named fragile
// boundaries (block build, emit, link, IBL insert/resize, eviction scrub,
// fault translation, signal delivery, ...) while the workload runs. Every
// injected failure must roll back transactionally, pass the cache-invariant
// audit, and walk the degradation ladder instead of detaching — and the
// architectural endpoint must stay bit-identical to a native run of the same
// workload under the same machine-fault plans. Each case also runs one
// aggressive Storm schedule whose trigger budget exhausts mid-run, proving
// the thread degrades under the burst and then re-attaches to full service.

// chaosCase is one workload of the suite: every registered benchmark plus a
// synthetic signal-delivery case (queued signals exercise SiteSignal, which
// no benchmark reaches on its own). Benchmarks cannot be constructed outside
// internal/workload, so the harness wraps what it needs of them here.
type chaosCase struct {
	name  string
	class workload.Class
	img   *image.Image
	sigs  []machine.Addr
}

// signalsCaseSrc is a call-heavy loop with a queued-signal counter: the calls
// keep the dispatcher, IBL and trace machinery busy so chaos triggers have
// sites to land on, and the handler count is part of the printed output so
// dropped or duplicated deliveries break the oracle comparison.
const signalsCaseSrc = `
main:
    mov ecx, 400
loop:
    call f0
    call f1
    call f2
    call f3
    dec ecx
    jnz loop
    mov eax, 3
    mov ebx, edx
    int 0x80
    mov eax, 3
    mov ebx, [hits]
    int 0x80
    mov eax, 1
    mov ebx, 0
    int 0x80
sig:
    inc dword [hits]
    ret
f0: add edx, 1
    ret
f1: add edx, 2
    ret
f2: add edx, 3
    ret
f3: add edx, 5
    ret
.org 0x9000
hits: .word 0
`

// buildChaosCases wraps the benchmarks and appends the synthetic signals
// case with three queued deliveries.
func buildChaosCases(benches []*workload.Benchmark) []chaosCase {
	cases := make([]chaosCase, 0, len(benches)+1)
	for _, b := range benches {
		cases = append(cases, chaosCase{name: b.Name, class: b.Class, img: b.Image()})
	}
	img := image.MustAssemble("signals", signalsCaseSrc)
	sig := img.Symbol("sig")
	cases = append(cases, chaosCase{
		name:  "signals",
		class: workload.ClassInt,
		img:   img,
		sigs:  []machine.Addr{sig, sig, sig},
	})
	return cases
}

// ChaosConfig is one runtime column of the differential. The option builders
// layer chaosTune on top so the degradation ladder turns over within the
// bounded run budget.
type ChaosConfig struct {
	Name string
	Opts func() core.Options
}

// chaosTune shortens the ladder time constants: native windows, retry
// budgets and cool-downs sized for multi-second production runs would let a
// short benchmark finish natively before ever stepping back up.
func chaosTune(o core.Options) core.Options {
	o.NativeWindow = 500
	o.RecoveryRetryBudget = 2
	o.RecoveryBackoff = 2
	o.QuarantineThreshold = 3
	o.ReattachCooldown = 8
	return o
}

// DefaultChaosConfigs compares the unbounded runtime and a pressured bounded
// runtime with a small IBL table, so rollback is exercised both with stable
// fragments and amid eviction churn and hashtable resizes (the only way the
// evict-scrub and IBL-resize sites are reachable).
func DefaultChaosConfigs() []ChaosConfig {
	return []ChaosConfig{
		{"unbounded", func() core.Options { return chaosTune(core.Default()) }},
		{"4k-smallibl", func() core.Options {
			o := core.Default()
			o.BBCacheSize, o.TraceCacheSize = 4<<10, 4<<10
			o.IBLTableBits = 4
			return chaosTune(o)
		}},
	}
}

// chaosSchedule is one seeded run recipe for one case: the chaos triggers,
// plus machine-fault plans derived from the case's clean syscall trace so
// internal failures compose with application fault translation (SiteFaultXl8
// has nothing to fire on otherwise).
type chaosSchedule struct {
	Seed     int64
	Kind     string // "sites" (per-site coverage) or "storm" (ladder round trip)
	Triggers []chaos.Trigger
	Plans    []FaultPlan
}

// ChaosOutcome is one (schedule, runtime config) comparison result.
type ChaosOutcome struct {
	Config        string            `json:"config"`
	Match         bool              `json:"match"`
	Mismatch      string            `json:"mismatch,omitempty"`
	Fires         map[string]uint64 `json:"fires,omitempty"`
	TotalFires    uint64            `json:"total_fires"`
	Recoveries    uint64            `json:"recoveries"`
	AuditFailures uint64            `json:"audit_failures"`
	NativeWindows uint64            `json:"native_windows"`
	Quarantined   uint64            `json:"quarantined"`
	DegradeLevel  uint64            `json:"degrade_level"`
	Reattaches    uint64            `json:"reattaches"`
	Detaches      uint64            `json:"detaches"`
	InvariantErr  string            `json:"invariant_err,omitempty"`
}

// ChaosScheduleResult is one schedule's differential across all configs.
type ChaosScheduleResult struct {
	Seed     int64          `json:"seed"`
	Kind     string         `json:"kind"`
	Triggers string         `json:"triggers"`
	Plans    []FaultPlan    `json:"plans,omitempty"`
	Outcomes []ChaosOutcome `json:"outcomes"`
}

// ChaosRow is one case's line of the experiment.
type ChaosRow struct {
	Benchmark string                `json:"benchmark"`
	Class     workload.Class        `json:"-"`
	Schedules []ChaosScheduleResult `json:"schedules"`
}

// Passed reports whether every schedule matched the native oracle under
// every config with a clean rollback audit and intact cache invariants.
func (r ChaosRow) Passed() bool {
	for _, s := range r.Schedules {
		for _, o := range s.Outcomes {
			if !o.Match || o.AuditFailures != 0 || o.InvariantErr != "" {
				return false
			}
		}
	}
	return true
}

// ChaosSiteTotals aggregates fires per site name across the whole matrix —
// the acceptance check that every chaos site was actually injected somewhere
// in the suite, not just armed.
func ChaosSiteTotals(rows []ChaosRow) map[string]uint64 {
	totals := map[string]uint64{}
	for _, r := range rows {
		for _, s := range r.Schedules {
			for _, o := range s.Outcomes {
				for name, n := range o.Fires {
					totals[name] += n
				}
			}
		}
	}
	return totals
}

// ChaosReattachTotal sums re-attaches across the matrix; the storm schedules
// must push it above zero.
func ChaosReattachTotal(rows []ChaosRow) uint64 {
	var total uint64
	for _, r := range rows {
		for _, s := range r.Schedules {
			for _, o := range s.Outcomes {
				total += o.Reattaches
			}
		}
	}
	return total
}

// buildChaosSchedules derives one case's schedules: a clean native run (with
// the case's queued signals) yields the syscall trace that seeds per-seed
// machine-fault plans, each paired with chaos.Schedule triggers over the
// requested sites; one extra Storm schedule (no fault plans) drives the
// degradation ladder through its full round trip.
func buildChaosSchedules(c chaosCase, seeds []int64, sites []chaos.Site) ([]chaosSchedule, error) {
	m := machine.New(machine.PentiumIV())
	c.img.Boot(m)
	for _, s := range c.sigs {
		m.QueueSignal(m.Threads[0], s)
	}
	if err := m.Run(runLimit); err != nil {
		return nil, fmt.Errorf("chaosstorm: clean native %s: %v", c.name, err)
	}
	if len(m.SyscallTrace) == 0 {
		return nil, fmt.Errorf("chaosstorm: %s made no system calls", c.name)
	}
	plans := schedulesFromTrace(m.SyscallTrace, seeds)

	schedules := make([]chaosSchedule, 0, len(seeds)+1)
	for i, seed := range seeds {
		schedules = append(schedules, chaosSchedule{
			Seed:     seed,
			Kind:     "sites",
			Triggers: chaos.Schedule(seed, sites),
			Plans:    plans[i].Plans,
		})
	}
	schedules = append(schedules, chaosSchedule{
		Seed:     seeds[0],
		Kind:     "storm",
		Triggers: chaos.Storm(seeds[0]),
	})
	return schedules, nil
}

// runChaosSchedule replays one schedule natively and under each config. The
// native baseline gets the same machine-fault plans and queued signals —
// only the chaos injector distinguishes the runs, so any divergence is the
// runtime's failure to contain its own injected faults.
func runChaosSchedule(c chaosCase, sched chaosSchedule, configs []ChaosConfig) (ChaosScheduleResult, error) {
	res := ChaosScheduleResult{
		Seed:     sched.Seed,
		Kind:     sched.Kind,
		Triggers: chaos.FormatTriggers(sched.Triggers),
		Plans:    sched.Plans,
	}

	nm := machine.New(machine.PentiumIV())
	c.img.Boot(nm)
	for _, s := range c.sigs {
		nm.QueueSignal(nm.Threads[0], s)
	}
	injectPlans(nm, sched.Plans)
	if err := nm.Run(runLimit); err != nil {
		return res, fmt.Errorf("chaosstorm: native %s seed %d: %v", c.name, sched.Seed, err)
	}
	want := oracle.Capture(nm)

	for _, cfg := range configs {
		opts := cfg.Opts()
		inj := chaos.NewInjector(sched.Seed, sched.Triggers)
		opts.Chaos = inj
		m := machine.New(machine.PentiumIV())
		r := core.New(m, c.img, opts, nil)
		for _, s := range c.sigs {
			m.QueueSignal(m.Threads[0], s)
		}
		injectPlans(m, sched.Plans)
		if err := r.Run(runLimit); err != nil {
			return res, fmt.Errorf("chaosstorm: %s seed %d (%s) under %s: %v",
				c.name, sched.Seed, sched.Kind, cfg.Name, err)
		}
		got := oracle.Capture(m)
		stats := r.StatsSnapshot()

		var invariantErr string
		for _, t := range m.Threads {
			ctx := r.ContextOf(t)
			if ctx == nil || ctx.Detached() {
				continue
			}
			if err := ctx.CheckCacheInvariants(); err != nil {
				invariantErr = err.Error()
				break
			}
		}

		fires := map[string]uint64{}
		for name, n := range inj.FiresByName() {
			if n > 0 {
				fires[name] = n
			}
		}
		res.Outcomes = append(res.Outcomes, ChaosOutcome{
			Config:        cfg.Name,
			Match:         oracle.Equal(want, got),
			Mismatch:      oracle.Mismatch(want, got),
			Fires:         fires,
			TotalFires:    inj.TotalFires(),
			Recoveries:    stats.Recoveries,
			AuditFailures: stats.RecoveryAuditFailures,
			NativeWindows: stats.NativeWindows,
			Quarantined:   stats.Quarantined,
			DegradeLevel:  stats.DegradeLevel,
			Reattaches:    stats.Reattaches,
			Detaches:      stats.Detaches,
			InvariantErr:  invariantErr,
		})
	}
	return res, nil
}

// ChaosStorm runs the experiment over the given benchmarks (plus the
// synthetic signals case) as two Matrix passes (workers <= 0 means one per
// GOMAXPROCS). Each case runs len(seeds) per-site schedules and one storm
// schedule. sites nil means every chaos site. Results are in input order
// and deterministic for any worker count; a failing cell is reported in the
// joined error while the rest of the matrix still runs.
func ChaosStorm(workers int, benches []*workload.Benchmark, seeds []int64,
	sites []chaos.Site, configs []ChaosConfig) ([]ChaosRow, error) {
	if len(seeds) == 0 {
		return nil, errors.New("chaosstorm: no seeds")
	}
	if sites == nil {
		sites = chaos.AllSites()
	}
	cases := buildChaosCases(benches)

	// Pass 1: derive each case's schedules from its clean trace.
	scheds, err1 := Matrix(workers, len(cases), func(i int) ([]chaosSchedule, error) {
		return buildChaosSchedules(cases[i], seeds, sites)
	})
	// Pass 2: replay every (case, schedule) cell.
	ns := len(seeds) + 1 // per-seed "sites" schedules plus one "storm"
	res, err2 := Matrix(workers, len(cases)*ns, func(k int) (ChaosScheduleResult, error) {
		i, j := k/ns, k%ns
		if scheds[i] == nil {
			return ChaosScheduleResult{}, nil // schedule derivation failed; already reported
		}
		return runChaosSchedule(cases[i], scheds[i][j], configs)
	})
	rows := make([]ChaosRow, len(cases))
	for i, c := range cases {
		rows[i] = ChaosRow{Benchmark: c.name, Class: c.class, Schedules: res[i*ns : (i+1)*ns]}
	}
	return rows, errors.Join(err1, err2)
}

// FormatChaosStorm renders the experiment as a pass/fail matrix with the
// recovery counters that prove the ladder actually turned over, plus the
// suite-wide per-site fire totals.
func FormatChaosStorm(seeds []int64, configs []ChaosConfig, rows []ChaosRow) string {
	var b strings.Builder
	names := make([]string, len(configs))
	for i, c := range configs {
		names[i] = c.Name
	}
	fmt.Fprintf(&b, "ChaosStorm: %d seeded chaos schedules + 1 storm per case, native vs runtime (%s)\n",
		len(seeds), strings.Join(names, ", "))
	fmt.Fprintf(&b, "%-10s %-4s %6s %8s %9s %8s %7s %7s %7s  %s\n",
		"case", "cls", "fires", "match", "recover", "window", "degrade", "reatt", "detach", "status")
	pass := 0
	for _, r := range rows {
		var fires, recoveries, windows, reattaches, detaches uint64
		var degrade uint64
		var match, total int
		for _, s := range r.Schedules {
			for _, o := range s.Outcomes {
				total++
				if o.Match {
					match++
				}
				fires += o.TotalFires
				recoveries += o.Recoveries
				windows += o.NativeWindows
				reattaches += o.Reattaches
				detaches += o.Detaches
				if o.DegradeLevel > degrade {
					degrade = o.DegradeLevel
				}
			}
		}
		status := "ok"
		if !r.Passed() {
			status = "FAIL"
			for _, s := range r.Schedules {
				for _, o := range s.Outcomes {
					switch {
					case o.Mismatch != "":
						status = fmt.Sprintf("MISMATCH seed %d/%s: %s", s.Seed, o.Config, o.Mismatch)
					case o.AuditFailures != 0:
						status = fmt.Sprintf("AUDIT seed %d/%s: %d rollback audits failed", s.Seed, o.Config, o.AuditFailures)
					case o.InvariantErr != "":
						status = fmt.Sprintf("INVARIANT seed %d/%s: %s", s.Seed, o.Config, o.InvariantErr)
					default:
						continue
					}
					break
				}
				if status != "FAIL" {
					break
				}
			}
		} else {
			pass++
		}
		fmt.Fprintf(&b, "%-10s %-4s %6d %5d/%-2d %9d %8d %7d %7d %7d  %s\n",
			r.Benchmark, r.Class, fires, match, total, recoveries, windows, degrade, reattaches, detaches, status)
	}
	fmt.Fprintf(&b, "passed %d/%d cases; re-attaches total %d\n", pass, len(rows), ChaosReattachTotal(rows))
	totals := ChaosSiteTotals(rows)
	var parts []string
	for _, site := range chaos.AllSites() {
		parts = append(parts, fmt.Sprintf("%s=%d", site, totals[site.String()]))
	}
	fmt.Fprintf(&b, "site fires: %s\n", strings.Join(parts, " "))
	return b.String()
}
