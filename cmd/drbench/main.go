// Command drbench regenerates the paper's evaluation artifacts over the
// synthetic SPEC2000 suite:
//
//	drbench -table1              # Table 1: the feature ladder on crafty/vpr
//	drbench -table2              # Table 2: per-level decode+encode cost
//	drbench -figure5             # Figure 5: all 22 benchmarks x 6 configs
//	drbench -figure5 -bench mgrid,crafty
//	drbench -figure5 -parallel 0 # fan the benchmark x config matrix across all CPUs
//	drbench -figure5 -json BENCH_figure5.json
//	drbench -cachesweep          # cache budget ladder: 22 benchmarks x 6 budgets
//	drbench -cachesweep -json BENCH_cachesweep.json
//	drbench -iblsweep            # indirect-branch lookup ladder: 22 benchmarks x 6 IBL configs
//	drbench -iblsweep -json BENCH_iblsweep.json
//	drbench -faultstorm          # fault-injection differential: 22 benchmarks x seeds x configs
//	drbench -faultstorm -seeds 101,202,303 -json BENCH_faultstorm.json
//	drbench -chaosstorm          # internal-fault-injection differential: cases x chaos schedules x configs
//	drbench -chaosstorm -chaos-seeds 101,202,303 -json BENCH_chaosstorm.json
//	drbench -chaosstorm -chaos-sites emit,ibl-insert   # restrict the injected sites
//	drbench -profile             # where-the-cycles-go: phase accounting + hottest fragments
//	drbench -profile -json BENCH_profile.json
//	drbench -profile -ring 4096 -trace-out BENCH_events.jsonl   # runtime event trace
//	drbench -telemetry           # all telemetry on: histograms + watchdog, bit-identity checked
//	drbench -telemetry -json BENCH_telemetry.json
//	drbench -telemetry -trace-events trace.json   # Chrome trace-event spans; load at ui.perfetto.dev
//	drbench -fuzz                # generative differential: 200 seeded programs x 4 configs vs native
//	drbench -fuzz -fuzz-seeds 1000 -fuzz-ops 60 -parallel 0
//	drbench -fuzz -fuzz-corpus repros/   # shrink and store repros for any mismatch
//	drbench -all                 # every experiment except -verify
//	drbench -verify              # transparency matrix: 22 benchmarks x 11 configs
//
// Requested experiments run in the order of the experiments table below.
// With -json PATH, the first experiment that has an artifact writes PATH and
// each later one writes PATH.<experiment>.json. A failing differential
// (faultstorm, chaosstorm, fuzz) still writes its artifact, then drbench
// exits 1 without running the rest.
//
// See EXPERIMENTS.md for the paper-versus-measured discussion.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fuzz"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// config holds the parsed flags the experiments read.
type config struct {
	benches  []*workload.Benchmark
	parallel int

	seeds      string
	chaosSeeds string
	chaosSites string

	fuzzSeeds  int
	fuzzBase   int64
	fuzzOps    int
	fuzzCorpus string

	top      int
	ring     int
	traceOut string

	traceEvents string
}

// experiment is one row of the experiments table.
type experiment struct {
	name    string // the flag that requests it, and the suffix of its later -json files
	help    string
	skipAll bool   // left out of -all
	schema  string // schema of its -json artifact
	unit    string // what one artifact row measures
	run     func(c *config) (outcome, error)
}

// outcome is what one experiment run produces.
type outcome struct {
	text     string    // the report printed to stdout
	rows     int       // workload results measured; zero fails the run
	artifact enveloped // the -json body, nil for none
	failed   bool      // a differential verdict failed: exit 1 once the artifact is written
}

// experiments lists every experiment in the order drbench runs them.
var experiments = []experiment{
	{name: "verify", skipAll: true, run: runVerify,
		help: "run the transparency matrix: every benchmark under every configuration, checking output equality"},
	{name: "table1", help: "reproduce Table 1", run: runTable1},
	{name: "table2", help: "reproduce Table 2", run: runTable2},
	{name: "figure5", help: "reproduce Figure 5", run: runFigure5,
		schema: "drbench/figure5/v1", unit: "benchmarks"},
	{name: "cachesweep", help: "run the cache-budget sweep (benchmarks x budget ladder)", run: runCacheSweep,
		schema: "drbench/cachesweep/v1", unit: "benchmarks"},
	{name: "iblsweep", help: "run the indirect-branch lookup sweep (benchmarks x IBL configuration ladder)", run: runIBLSweep,
		schema: "drbench/iblsweep/v1", unit: "benchmarks"},
	{name: "faultstorm", help: "run the fault-injection differential (benchmarks x seeded schedules x cache configs)", run: runFaultStorm,
		schema: "drbench/faultstorm/v1", unit: "benchmarks"},
	{name: "chaosstorm", help: "run the internal-fault-injection differential (cases x seeded chaos schedules x cache configs)", run: runChaosStorm,
		schema: "drbench/chaos/v1", unit: "cases"},
	{name: "fuzz", help: "run the generative differential fuzzer: seeded programs, native vs the runtime configuration matrix", run: runFuzz,
		schema: "drbench/fuzz/v1", unit: "programs"},
	{name: "profile", help: "run the where-the-cycles-go experiment: per-phase tick accounting + per-fragment profiles", run: runProfile,
		schema: "drbench/profile/v1", unit: "benchmarks"},
	{name: "telemetry", help: "run the live-telemetry experiment: histograms + watchdog with all instrumentation on, checked bit-identical to native", run: runTelemetry,
		schema: "drbench/telemetry/v1", unit: "benchmarks"},
}

// run is drbench with its arguments and stdout explicit; it returns the
// process exit code.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("drbench", flag.ContinueOnError)
	requested := make([]bool, len(experiments))
	for i, e := range experiments {
		fs.BoolVar(&requested[i], e.name, false, e.help)
	}
	var c config
	all := fs.Bool("all", false, "run every experiment except -verify")
	bench := fs.String("bench", "", "comma-separated benchmark subset for -verify and every matrix experiment (default: the whole suite)")
	jsonPath := fs.String("json", "", "write each experiment's results as JSON: the first to this path, each later one to PATH.<experiment>.json")
	fs.IntVar(&c.parallel, "parallel", 1, "worker goroutines for every experiment matrix; 0 means one per CPU")
	fs.StringVar(&c.seeds, "seeds", "101,202,303", "comma-separated schedule seeds for -faultstorm")
	fs.StringVar(&c.chaosSeeds, "chaos-seeds", "101,202,303", "comma-separated schedule seeds for -chaosstorm")
	fs.StringVar(&c.chaosSites, "chaos-sites", "", "comma-separated chaos site subset for -chaosstorm (empty = every site)")
	fs.IntVar(&c.fuzzSeeds, "fuzz-seeds", 200, "number of generator seeds for -fuzz")
	fs.Int64Var(&c.fuzzBase, "fuzz-seed-base", 1, "first generator seed for -fuzz")
	fs.IntVar(&c.fuzzOps, "fuzz-ops", 40, "statement budget per generated program for -fuzz")
	fs.StringVar(&c.fuzzCorpus, "fuzz-corpus", "", "directory to write shrunk repro entries to when -fuzz finds a mismatch")
	fs.IntVar(&c.top, "top", 10, "hottest fragments kept per benchmark for -profile")
	fs.IntVar(&c.ring, "ring", 0, "per-thread event-trace ring size for -profile (0 = tracing off)")
	fs.StringVar(&c.traceOut, "trace-out", "", "write the drained -profile event trace as JSONL to this path (implies -ring 4096 unless set)")
	fs.StringVar(&c.traceEvents, "trace-events", "", "write the -telemetry span stream as Chrome trace-event JSON to this path (load at ui.perfetto.dev)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var exps []experiment
	for i, e := range experiments {
		if requested[i] || (*all && !e.skipAll) {
			exps = append(exps, e)
		}
	}
	if len(exps) == 0 {
		fs.Usage()
		return 2
	}
	var names []string
	if *bench != "" {
		names = strings.Split(*bench, ",")
	}
	var err error
	if c.benches, err = harness.Benchmarks(names); err != nil {
		fmt.Fprintln(os.Stderr, "drbench:", err)
		return 1
	}
	return execute(exps, &c, *jsonPath, stdout)
}

// execute runs exps in order, printing each report and writing each
// artifact: the first to jsonPath, each later one to
// jsonPath.<experiment>.json. It stops with exit code 1 at the first error,
// empty result set or failed verdict — the failed experiment's artifact is
// written first.
func execute(exps []experiment, c *config, jsonPath string, stdout io.Writer) int {
	written := 0
	for _, e := range exps {
		start := time.Now()
		out, err := e.run(c)
		elapsed := time.Since(start)
		if err == nil && out.rows == 0 {
			// The run silently did no work: fail loudly rather than
			// produce an empty artifact.
			err = fmt.Errorf("%s produced zero workload results", e.name)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "drbench:", err)
			return 1
		}
		io.WriteString(stdout, out.text)
		if out.artifact != nil && jsonPath != "" {
			path := jsonPath
			if written > 0 {
				path += "." + e.name + ".json"
			}
			*out.artifact.envelope() = artifact{Schema: e.schema, Workers: c.parallel, WallClockSeconds: elapsed.Seconds()}
			if err := writeArtifact(path, out.artifact); err != nil {
				fmt.Fprintln(os.Stderr, "drbench:", err)
				return 1
			}
			written++
			fmt.Fprintf(stdout, "wrote %s (%d %s, %.2fs wall clock)\n", path, out.rows, e.unit, elapsed.Seconds())
		}
		if out.failed {
			return 1
		}
	}
	return 0
}

// artifact is the envelope every -json file starts with. encoding/json
// emits an embedded struct's fields at its position, so each artifact body
// embeds it first.
type artifact struct {
	Schema           string  `json:"schema"`
	Workers          int     `json:"workers"`
	WallClockSeconds float64 `json:"wall_clock_seconds"`
}

func (a *artifact) envelope() *artifact { return a }

// enveloped is an artifact body: a struct embedding artifact.
type enveloped interface{ envelope() *artifact }

func writeArtifact(path string, a enveloped) error {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runVerify is the transparency matrix: every benchmark under the five
// Table 1 configurations and the six Figure 5 client configurations, each
// run's output checked against native. Completing the matrix is the proof.
func runVerify(c *config) (outcome, error) {
	ladder := core.TableOneLadder()
	nc := len(ladder) + int(harness.NumOptConfigs)
	_, err := harness.Matrix(c.parallel, len(c.benches)*nc, func(k int) (*harness.ConfigResult, error) {
		b, i := c.benches[k/nc], k%nc
		if i < len(ladder) {
			return harness.RunConfigErr(b, ladder[i])
		}
		return harness.RunConfigErr(b, core.Default(), harness.ClientsFor(harness.OptConfig(i-len(ladder)))...)
	})
	if err != nil {
		return outcome{}, err
	}
	var b strings.Builder
	for _, bench := range c.benches {
		fmt.Fprintf(&b, "%-10s%s ok\n", bench.Name, strings.Repeat(" .", nc))
	}
	fmt.Fprintf(&b, "transparency verified: %d benchmark x configuration runs, all outputs identical to native\n", len(c.benches)*nc)
	return outcome{text: b.String(), rows: len(c.benches)}, nil
}

func runTable1(*config) (outcome, error) {
	rows := harness.Table1()
	return outcome{text: harness.FormatTable1(rows) + "\n", rows: len(rows)}, nil
}

func runTable2(*config) (outcome, error) {
	rows := harness.Table2()
	return outcome{text: harness.FormatTable2(rows) + "\n", rows: len(rows)}, nil
}

// figure5JSON is the file layout of -figure5 -json: the Figure 5 series
// plus the simulated cycle totals behind them. Figure 5 measures the
// paper's base system, harness.Figure5Options.
type figure5JSON struct {
	artifact
	TotalSimulatedCycle uint64    `json:"total_simulated_cycles"`
	Configs             []string  `json:"configs"`
	Rows                []rowJSON `json:"rows"`
	Means               meansJSON `json:"means"`
}

type rowJSON struct {
	Benchmark  string    `json:"benchmark"`
	Class      string    `json:"class"`
	Normalized []float64 `json:"normalized"`
	Cycles     []uint64  `json:"cycles"`
}

type meansJSON struct {
	FP  []float64 `json:"fp"`
	Int []float64 `json:"int"`
	All []float64 `json:"all"`
}

func runFigure5(c *config) (outcome, error) {
	rows, err := harness.RunMatrix(c.parallel, c.benches, harness.Figure5Options())
	if err != nil {
		return outcome{}, err
	}
	art := &figure5JSON{}
	for cfg := harness.ConfigBase; cfg < harness.NumOptConfigs; cfg++ {
		art.Configs = append(art.Configs, cfg.String())
	}
	for _, r := range rows {
		row := rowJSON{Benchmark: r.Benchmark, Class: r.Class.String()}
		for cfg := harness.ConfigBase; cfg < harness.NumOptConfigs; cfg++ {
			row.Normalized = append(row.Normalized, r.Normalized[cfg])
			cycles := r.Ticks[cfg].Cycles()
			row.Cycles = append(row.Cycles, cycles)
			art.TotalSimulatedCycle += cycles
		}
		art.Rows = append(art.Rows, row)
	}
	m := harness.Means(rows)
	for cfg := harness.ConfigBase; cfg < harness.NumOptConfigs; cfg++ {
		art.Means.FP = append(art.Means.FP, m.FP[cfg])
		art.Means.Int = append(art.Means.Int, m.Int[cfg])
		art.Means.All = append(art.Means.All, m.All[cfg])
	}
	return outcome{text: harness.FormatFigure5(rows), rows: len(rows), artifact: art}, nil
}

// cachesweepJSON is the file layout of -cachesweep -json: per (benchmark,
// budget) normalized time plus the cache-management counters that explain
// it.
type cachesweepJSON struct {
	artifact
	Points []pointJSON    `json:"points"`
	Rows   []cacheRowJSON `json:"rows"`
	Means  []float64      `json:"means"`
}

type pointJSON struct {
	Name     string `json:"name"`
	Bytes    int    `json:"bytes"`
	Adaptive bool   `json:"adaptive"`
}

type cacheRowJSON struct {
	Benchmark     string    `json:"benchmark"`
	Class         string    `json:"class"`
	Normalized    []float64 `json:"normalized"`
	Cycles        []uint64  `json:"cycles"`
	Evictions     []uint64  `json:"evictions"`
	Regenerations []uint64  `json:"regenerations"`
	CacheResizes  []uint64  `json:"cache_resizes"`
	BBLiveBytes   []uint64  `json:"bb_live_bytes"`
	TrLiveBytes   []uint64  `json:"trace_live_bytes"`
}

func runCacheSweep(c *config) (outcome, error) {
	points := harness.DefaultSweep()
	rows, err := harness.CacheSweep(c.parallel, c.benches, points)
	if err != nil {
		return outcome{}, err
	}
	art := &cachesweepJSON{Means: harness.CacheSweepMeans(points, rows)}
	for _, p := range points {
		art.Points = append(art.Points, pointJSON{Name: p.Name, Bytes: p.Bytes, Adaptive: p.Adaptive})
	}
	for _, r := range rows {
		row := cacheRowJSON{Benchmark: r.Benchmark, Class: r.Class.String()}
		for _, cell := range r.Cells {
			row.Normalized = append(row.Normalized, cell.Normalized)
			row.Cycles = append(row.Cycles, cell.Ticks.Cycles())
			row.Evictions = append(row.Evictions, cell.Stats.Evictions)
			row.Regenerations = append(row.Regenerations, cell.Stats.Regenerations)
			row.CacheResizes = append(row.CacheResizes, cell.Stats.CacheResizes)
			row.BBLiveBytes = append(row.BBLiveBytes, cell.Stats.BBCacheLiveBytes)
			row.TrLiveBytes = append(row.TrLiveBytes, cell.Stats.TraceCacheLiveBytes)
		}
		art.Rows = append(art.Rows, row)
	}
	return outcome{text: harness.FormatCacheSweep(points, rows), rows: len(rows), artifact: art}, nil
}

// iblsweepJSON is the file layout of -iblsweep -json: per (benchmark, IBL
// configuration) the Figure-5-style normalized overhead plus the dispatcher
// context switches an IBL hit avoids and the hashtable behaviour counters
// (misses, probe chains, growth, displacement, elisions) that explain it.
type iblsweepJSON struct {
	artifact
	Points []iblPointJSON `json:"points"`
	Rows   []iblRowJSON   `json:"rows"`
	Means  []float64      `json:"means"`
}

type iblPointJSON struct {
	Name         string `json:"name"`
	Bits         uint   `json:"bits"`
	DirectMapped bool   `json:"direct_mapped"`
	Adaptive     bool   `json:"adaptive"`
	FlagsElision bool   `json:"flags_elision"`
}

type iblRowJSON struct {
	Benchmark          string    `json:"benchmark"`
	Class              string    `json:"class"`
	Normalized         []float64 `json:"normalized"`
	Cycles             []uint64  `json:"cycles"`
	ContextSwitches    []uint64  `json:"context_switches"`
	IBLMisses          []uint64  `json:"ibl_misses"`
	IBLCollisions      []uint64  `json:"ibl_collisions"`
	IBLMaxProbe        []uint64  `json:"ibl_max_probe"`
	IBLResizes         []uint64  `json:"ibl_resizes"`
	IBLReplaced        []uint64  `json:"ibl_replaced"`
	FlagsElisions      []uint64  `json:"flags_elisions"`
	InlineChecksElided []uint64  `json:"inline_checks_elided"`
}

func runIBLSweep(c *config) (outcome, error) {
	points := harness.DefaultIBLSweep()
	rows, err := harness.IBLSweep(c.parallel, c.benches, points)
	if err != nil {
		return outcome{}, err
	}
	art := &iblsweepJSON{Means: harness.IBLSweepMeans(points, rows)}
	for _, p := range points {
		art.Points = append(art.Points, iblPointJSON{
			Name: p.Name, Bits: p.Bits, DirectMapped: p.DirectMapped,
			Adaptive: p.Adaptive, FlagsElision: p.FlagsElision,
		})
	}
	for _, r := range rows {
		row := iblRowJSON{Benchmark: r.Benchmark, Class: r.Class.String()}
		for _, cell := range r.Cells {
			s := cell.Stats
			row.Normalized = append(row.Normalized, cell.Normalized)
			row.Cycles = append(row.Cycles, cell.Ticks.Cycles())
			row.ContextSwitches = append(row.ContextSwitches, s.ContextSwitches)
			row.IBLMisses = append(row.IBLMisses, s.IBLMisses)
			row.IBLCollisions = append(row.IBLCollisions, s.IBLCollisions)
			row.IBLMaxProbe = append(row.IBLMaxProbe, s.IBLMaxProbe)
			row.IBLResizes = append(row.IBLResizes, s.IBLResizes)
			row.IBLReplaced = append(row.IBLReplaced, s.IBLReplaced)
			row.FlagsElisions = append(row.FlagsElisions, s.FlagsElisions)
			row.InlineChecksElided = append(row.InlineChecksElided, s.InlineChecksElided)
		}
		art.Rows = append(art.Rows, row)
	}
	return outcome{text: harness.FormatIBLSweep(points, rows), rows: len(rows), artifact: art}, nil
}

// faultstormJSON is the file layout of -faultstorm -json: per (benchmark,
// seed) the injected plans, the native delivered-fault sequence, and each
// runtime configuration's match verdict with the counters that prove the
// translation and eviction paths ran.
type faultstormJSON struct {
	artifact
	Seeds  []int64            `json:"seeds"`
	Rows   []harness.StormRow `json:"rows"`
	Passed int                `json:"passed"`
}

func runFaultStorm(c *config) (outcome, error) {
	seeds, err := parseSeeds(c.seeds)
	if err != nil {
		return outcome{}, err
	}
	configs := harness.DefaultStormConfigs()
	rows, err := harness.FaultStorm(c.parallel, c.benches, seeds, configs)
	if err != nil {
		return outcome{}, err
	}
	art := &faultstormJSON{Seeds: seeds, Rows: rows}
	for _, r := range rows {
		if r.Passed() {
			art.Passed++
		}
	}
	return outcome{text: harness.FormatFaultStorm(seeds, configs, rows), rows: len(rows),
		artifact: art, failed: art.Passed < len(rows)}, nil
}

// chaosJSON is the file layout of -chaosstorm -json: per (case, chaos
// schedule) the trigger recipe, the riding machine-fault plans, and each
// runtime configuration's match verdict with the recovery-ladder counters
// (fires, recoveries, audit failures, degrade level, re-attaches), plus the
// suite-wide per-site fire totals CI checks for coverage.
type chaosJSON struct {
	artifact
	Seeds      []int64            `json:"seeds"`
	SiteFires  map[string]uint64  `json:"site_fires"`
	Reattaches uint64             `json:"reattaches"`
	Rows       []harness.ChaosRow `json:"rows"`
	Passed     int                `json:"passed"`
}

func runChaosStorm(c *config) (outcome, error) {
	seeds, err := parseSeeds(c.chaosSeeds)
	if err != nil {
		return outcome{}, err
	}
	sites, err := parseSites(c.chaosSites)
	if err != nil {
		return outcome{}, err
	}
	configs := harness.DefaultChaosConfigs()
	rows, err := harness.ChaosStorm(c.parallel, c.benches, seeds, sites, configs)
	if err != nil {
		return outcome{}, err
	}
	art := &chaosJSON{
		Seeds:      seeds,
		SiteFires:  harness.ChaosSiteTotals(rows),
		Reattaches: harness.ChaosReattachTotal(rows),
		Rows:       rows,
	}
	for _, r := range rows {
		if r.Passed() {
			art.Passed++
		}
	}
	return outcome{text: harness.FormatChaosStorm(seeds, configs, rows), rows: len(rows),
		artifact: art, failed: art.Passed < len(rows)}, nil
}

// fuzzJSON is the file layout of -fuzz -json: one row per generated program
// with its per-configuration verdicts, so CI can archive exactly which seeds
// ran and which diverged.
type fuzzJSON struct {
	artifact
	SeedBase    int64          `json:"seed_base"`
	MaxOps      int            `json:"max_ops"`
	Configs     []string       `json:"configs"`
	Programs    int            `json:"programs"`
	Mismatching int            `json:"mismatching"`
	Reports     []*fuzz.Report `json:"reports"`
}

func runFuzz(c *config) (outcome, error) {
	if c.fuzzSeeds <= 0 {
		return outcome{}, errors.New("-fuzz-seeds must be positive")
	}
	seeds := make([]int64, c.fuzzSeeds)
	for i := range seeds {
		seeds[i] = c.fuzzBase + int64(i)
	}
	start := time.Now()
	reports, err := fuzz.Campaign(c.parallel, seeds, c.fuzzOps, nil)
	elapsed := time.Since(start)
	if err != nil {
		return outcome{}, err
	}
	art := &fuzzJSON{SeedBase: c.fuzzBase, MaxOps: c.fuzzOps, Programs: len(reports), Reports: reports}
	for _, cfg := range fuzz.Configs() {
		art.Configs = append(art.Configs, cfg.Name)
	}
	var failing []*fuzz.Report
	stmts, faults := 0, 0
	for _, r := range reports {
		stmts += r.Stmts
		if r.Fault {
			faults++
		}
		if !r.Passed() {
			failing = append(failing, r)
		}
	}
	art.Mismatching = len(failing)

	var b strings.Builder
	fmt.Fprintf(&b, "fuzz: %d programs (seeds %d..%d, %d stmts, %d with fault sites) x %d configs: %d mismatching (%.2fs wall clock)\n",
		len(reports), c.fuzzBase, c.fuzzBase+int64(c.fuzzSeeds)-1, stmts, faults, len(art.Configs), len(failing), elapsed.Seconds())
	for _, r := range failing {
		mm, _ := r.FirstMismatch()
		fmt.Fprintf(&b, "  seed %d under %s: %s\n", r.Seed, mm.Config, mm.Mismatch)
	}
	if c.fuzzCorpus != "" {
		for _, r := range failing {
			if err := writeRepro(&b, c.fuzzCorpus, c.fuzzOps, r); err != nil {
				return outcome{}, err
			}
		}
	}
	return outcome{text: b.String(), rows: len(reports), artifact: art, failed: len(failing) > 0}, nil
}

// writeRepro shrinks a failing program to a minimal one that still fails
// and stores it in the corpus directory.
func writeRepro(w io.Writer, dir string, maxOps int, r *fuzz.Report) error {
	p := fuzz.Generate(r.Seed, maxOps)
	stillFails := func(q *fuzz.Prog) bool {
		rep, err := fuzz.Check(q, nil)
		return err == nil && !rep.Passed()
	}
	shrunk := fuzz.Shrink(p, stillFails, 0)
	mm, _ := r.FirstMismatch()
	e := &fuzz.Entry{
		Name:     fmt.Sprintf("fuzz-seed%d", r.Seed),
		Note:     fmt.Sprintf("shrunk from %d statements by drbench -fuzz", p.NumStmts()),
		Config:   mm.Config,
		Mismatch: mm.Mismatch,
		Prog:     *shrunk,
	}
	if err := fuzz.WriteEntry(dir, e); err != nil {
		return err
	}
	fmt.Fprintf(w, "  wrote %s/%s.json (%d statements)\n", dir, e.Name, shrunk.NumStmts())
	return nil
}

// profileJSON is the file layout of -profile -json: per benchmark the
// per-phase tick breakdown (phase_ticks sums exactly to ticks — the
// conservation invariant CI asserts), the hottest fragments, and the cache
// counters behind them.
type profileJSON struct {
	artifact
	Phases []string         `json:"phases"`
	Rows   []profileRowJSON `json:"rows"`
}

type profileRowJSON struct {
	Benchmark  string            `json:"benchmark"`
	Class      string            `json:"class"`
	Ticks      uint64            `json:"ticks"`
	Normalized float64           `json:"normalized"`
	PhaseTicks map[string]uint64 `json:"phase_ticks"`

	Fragments int                   `json:"fragments"`
	Top       []obs.FragmentProfile `json:"top"`

	BlocksBuilt uint64 `json:"blocks_built"`
	TracesBuilt uint64 `json:"traces_built"`
	Evictions   uint64 `json:"evictions"`
	IBLMisses   uint64 `json:"ibl_misses"`

	Events        int    `json:"events,omitempty"`
	EventsDropped uint64 `json:"events_dropped,omitempty"`
}

func runProfile(c *config) (outcome, error) {
	ring := c.ring
	if c.traceOut != "" && ring == 0 {
		ring = 4096
	}
	rows, err := harness.Profile(c.parallel, c.top, ring, c.benches)
	if err != nil {
		return outcome{}, err
	}
	text := harness.FormatProfile(rows)
	if c.traceOut != "" {
		if err := writeTraceJSONL(c.traceOut, rows); err != nil {
			return outcome{}, err
		}
		n, dropped := 0, uint64(0)
		for _, r := range rows {
			n += len(r.Events)
			dropped += r.EventsDropped
		}
		text += fmt.Sprintf("wrote %s (%d events, %d dropped by the rings)\n", c.traceOut, n, dropped)
	}
	art := &profileJSON{Phases: obs.PhaseNames()}
	for _, r := range rows {
		art.Rows = append(art.Rows, profileRowJSON{
			Benchmark:     r.Benchmark,
			Class:         r.Class.String(),
			Ticks:         uint64(r.Ticks),
			Normalized:    r.Normalized,
			PhaseTicks:    r.Phases.Map(),
			Fragments:     r.Fragments,
			Top:           r.Top,
			BlocksBuilt:   r.Stats.BlocksBuilt,
			TracesBuilt:   r.Stats.TracesBuilt,
			Evictions:     r.Stats.Evictions,
			IBLMisses:     r.Stats.IBLMisses,
			Events:        len(r.Events),
			EventsDropped: r.EventsDropped,
		})
	}
	return outcome{text: text, rows: len(rows), artifact: art}, nil
}

// writeTraceJSONL writes every benchmark's drained event trace as JSON
// lines, each labeled with its benchmark name.
func writeTraceJSONL(path string, rows []harness.ProfileRow) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for _, r := range rows {
		if err := obs.WriteJSONL(f, r.Benchmark, r.Events); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// telemetryJSON is the file layout of -telemetry -json: per benchmark the
// distribution-metric digests, any watchdog detections (zero on a healthy
// suite — CI asserts this), and the runtime counters behind them. Every row
// in this file has already passed the bit-identity check against native.
type telemetryJSON struct {
	artifact
	Metrics   []string           `json:"metrics"`
	Anomalies uint64             `json:"anomalies"`
	Rows      []telemetryRowJSON `json:"rows"`
}

type telemetryRowJSON struct {
	Benchmark  string  `json:"benchmark"`
	Class      string  `json:"class"`
	Ticks      uint64  `json:"ticks"`
	Normalized float64 `json:"normalized"`

	Histograms []obs.HistogramSummary `json:"histograms"`
	Anomalies  []obs.Anomaly          `json:"anomalies,omitempty"`

	BlocksBuilt uint64 `json:"blocks_built"`
	TracesBuilt uint64 `json:"traces_built"`
	Evictions   uint64 `json:"evictions"`
	IBLMisses   uint64 `json:"ibl_misses"`
	Recoveries  uint64 `json:"recoveries"`
}

func runTelemetry(c *config) (outcome, error) {
	var traceW io.Writer
	var traceFile *os.File
	if c.traceEvents != "" {
		f, err := os.Create(c.traceEvents)
		if err != nil {
			return outcome{}, err
		}
		traceFile, traceW = f, f
	}
	rows, err := harness.Telemetry(c.parallel, c.benches, traceW)
	if traceFile != nil {
		err = errors.Join(err, traceFile.Close())
	}
	if err != nil {
		return outcome{}, err
	}
	text := harness.FormatTelemetry(rows)
	if traceFile != nil {
		text += fmt.Sprintf("wrote %s (Chrome trace-event JSON; load at ui.perfetto.dev)\n", c.traceEvents)
	}
	art := &telemetryJSON{Metrics: obs.MetricNames()}
	for _, r := range rows {
		art.Anomalies += uint64(len(r.Anomalies))
		art.Rows = append(art.Rows, telemetryRowJSON{
			Benchmark:   r.Benchmark,
			Class:       r.Class.String(),
			Ticks:       uint64(r.Ticks),
			Normalized:  r.Normalized,
			Histograms:  r.Histograms,
			Anomalies:   r.Anomalies,
			BlocksBuilt: r.Stats.BlocksBuilt,
			TracesBuilt: r.Stats.TracesBuilt,
			Evictions:   r.Stats.Evictions,
			IBLMisses:   r.Stats.IBLMisses,
			Recoveries:  r.Stats.Recoveries,
		})
	}
	return outcome{text: text, rows: len(rows), artifact: art}, nil
}

func parseSeeds(s string) ([]int64, error) {
	var seeds []int64
	for _, part := range strings.Split(s, ",") {
		var v int64
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &v); err != nil {
			return nil, fmt.Errorf("bad seed %q", part)
		}
		seeds = append(seeds, v)
	}
	return seeds, nil
}

// parseSites resolves a comma-separated chaos site list; empty means every
// site (ChaosStorm interprets nil as all).
func parseSites(s string) ([]chaos.Site, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var sites []chaos.Site
	for _, part := range strings.Split(s, ",") {
		site, ok := chaos.ParseSite(strings.TrimSpace(part))
		if !ok {
			return nil, fmt.Errorf("unknown chaos site %q", part)
		}
		sites = append(sites, site)
	}
	return sites, nil
}
