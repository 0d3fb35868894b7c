package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/oracle"
	"repro/internal/workload"
)

// subsets keep each workload's tests short: two of its programs. churn's two
// are ones where building is most of the runtime's extra host time, as it is
// over the whole workload; for crafty alone it is about half.
var subsets = map[string][]string{
	"steady":  {"mcf", "parser"},
	"churn":   {"vortex", "eon"},
	"figure5": {"mcf", "crafty"},
}

func TestWrapperHookParity(t *testing.T) {
	for _, c := range harness.ClientsFor(harness.ConfigAll) {
		w, err := wrapClient(c, newTracer(), &hookStats{})
		if err != nil {
			t.Fatal(err)
		}
		want, got := hookSet(c), hookSet(w)
		if !slices.Equal(want, got) {
			t.Errorf("%s: wrapper hooks %v != client hooks %v", c.Name(), got, want)
		}
		shapesTraces := slices.Contains(got, "EndTraceHook") || slices.Contains(got, "BasicBlockHook")
		if shapesTraces != (c.Name() == "ctrace") {
			t.Errorf("%s: wrapper hooks %v: EndTraceHook and BasicBlockHook belong to ctrace only", c.Name(), got)
		}
		if w.Name() != c.Name() {
			t.Errorf("wrapper name %q != client name %q", w.Name(), c.Name())
		}
	}
}

// TestWrapperTicksIdentical runs a program under every Figure 5
// configuration with and without the timing wrappers: simulated time and the
// oracle state must not change, and the wrappers must have seen the calls.
func TestWrapperTicksIdentical(t *testing.T) {
	b := workload.ByName("crafty")
	runWith := func(clients []core.Client) (machine.Ticks, oracle.State) {
		m := machine.New(machine.PentiumIV())
		r := core.New(m, b.Image(), harness.Figure5Options(), nil, clients...)
		if err := r.Run(runLimit); err != nil {
			t.Fatal(err)
		}
		return m.Ticks, oracle.Capture(m)
	}
	for c := harness.ConfigRLR; c < harness.NumOptConfigs; c++ {
		plainTicks, plainState := runWith(harness.ClientsFor(c))
		stats := map[string]*hookStats{}
		var wrapped []core.Client
		for _, cl := range harness.ClientsFor(c) {
			stats[cl.Name()] = &hookStats{}
			w, err := wrapClient(cl, newTracer(), stats[cl.Name()])
			if err != nil {
				t.Fatal(err)
			}
			wrapped = append(wrapped, w)
		}
		ticks, state := runWith(wrapped)
		if ticks != plainTicks {
			t.Errorf("%s: wrapped ticks %d != unwrapped %d", c, ticks, plainTicks)
		}
		if d := oracle.Mismatch(plainState, state); d != "" {
			t.Errorf("%s: wrapped run: %s", c, d)
		}
		for name, st := range stats {
			if st.calls == 0 || st.ns <= 0 {
				t.Errorf("%s: wrapper of %s timed %d calls in %d ns", c, name, st.calls, st.ns)
			}
		}
	}
}

// measured holds the metrics of the test subsets, each measured with two
// seeds, twice, untraced and traced.
var measured struct {
	once sync.Once
	// runs[workload] lists one metric map per (seed, repeat), untraced
	// metrics merged with traced ones.
	runs map[string][]map[string]metric
	err  error
}

func measureSubsets(t *testing.T) map[string][]map[string]metric {
	t.Helper()
	measured.once.Do(func() {
		measured.runs = map[string][]map[string]metric{}
		for _, name := range workloadNames {
			for _, seed := range []uint64{1, 2} {
				for repeat := 0; repeat < 2; repeat++ {
					w, err := newWorkload(name, subsets[name]...)
					if err != nil {
						measured.err = err
						return
					}
					all := map[string]metric{}
					for _, traced := range []bool{false, true} {
						out, err := measure(w, config{seed: seed, seconds: 1, traced: traced})
						if err != nil {
							measured.err = err
							return
						}
						if out.failed != 0 {
							measured.err = &failure{name, out.errs}
							return
						}
						for _, m := range out.metrics {
							all[m.name] = m
						}
					}
					measured.runs[name] = append(measured.runs[name], all)
				}
			}
		}
	})
	if measured.err != nil {
		t.Fatal(measured.err)
	}
	return measured.runs
}

type failure struct {
	workload string
	errs     []string
}

func (f *failure) Error() string { return f.workload + ": " + strings.Join(f.errs, "; ") }

// deterministic reports whether a metric is simulated or a count, and so
// must repeat bit for bit across seeds and repeats.
func deterministic(name string) bool {
	switch {
	case strings.HasPrefix(name, "sim_overhead"),
		strings.HasPrefix(name, "core.phase."),
		strings.HasSuffix(name, ".hook_calls"):
		return true
	}
	return slices.Contains([]string{
		"machine.instr_per_app", "machine.decode_miss_rate", "machine.ind_mispred_rate",
		"core.blocks_built", "core.traces_built", "core.evictions", "core.regen_ratio",
		"core.context_switches", "core.links", "core.ibl_misses", "core.clean_calls",
		"instr.level4_bytes_per_block", "bench.fail_frac",
	}, name)
}

func TestSeedsAndRepeatsBitIdentical(t *testing.T) {
	runs := measureSubsets(t)
	for _, name := range workloadNames {
		first := runs[name][0]
		for i, r := range runs[name][1:] {
			for k, m := range first {
				if deterministic(k) && r[k].value != m.value {
					t.Errorf("%s: %s = %v in run %d, %v in run 0", name, k, r[k].value, i+1, m.value)
				}
			}
		}
	}
	w, err := newWorkload("figure5")
	if err != nil {
		t.Fatal(err)
	}
	b1, b2 := &bench{w: w, seed: 1}, &bench{w: w, seed: 2}
	if slices.Equal(b1.order(1), b2.order(1)) || slices.Equal(b1.order(1), b1.order(2)) {
		t.Error("run order does not depend on the seed and the pass")
	}
}

// TestLayerSplit checks the attribution the workloads were chosen for:
// clients run only on figure5, and building dominates the runtime's extra
// host time only on churn.
func TestLayerSplit(t *testing.T) {
	runs := measureSubsets(t)
	for _, name := range workloadNames {
		m := runs[name][0]
		calls := 0.0
		for _, c := range clientNames {
			calls += m["clients."+c+".hook_calls"].value
		}
		if (calls > 0) != (name == "figure5") {
			t.Errorf("%s: client hook calls %v", name, calls)
		}
		if m["sim_overhead"].value <= 1 {
			t.Errorf("%s: sim_overhead %v, want > 1", name, m["sim_overhead"].value)
		}
	}
	churn := runs["churn"][0]
	if churn["core.evictions"].value == 0 || churn["core.extra_s"].value < churn["core.run_s"].value/2 {
		t.Errorf("churn: %v evictions, extra %v s of run %v s", churn["core.evictions"].value,
			churn["core.extra_s"].value, churn["core.run_s"].value)
	}
	if steady := runs["steady"][0]; steady["core.evictions"].value != 0 {
		t.Errorf("steady: %v evictions", steady["core.evictions"].value)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitName = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestMetricsMatchBenchmarkJSON checks every emitted metric name and unit
// against the limits and against BENCHMARK.json at the repository root.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, limits 16 and 128", len(spec.EndToEnd), len(spec.PerLayer))
	}
	want := map[string]string{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if _, dup := want[m.Name]; dup {
			t.Errorf("metric %s listed twice", m.Name)
		}
		want[m.Name] = m.Unit
	}
	for _, name := range workloadNames {
		got := measureSubsets(t)[name][0]
		for k, m := range got {
			if !metricName.MatchString(k) || !unitName.MatchString(m.unit) {
				t.Errorf("%s: bad metric name or unit %q %q", name, k, m.unit)
			}
			if u, ok := want[k]; !ok || u != m.unit {
				t.Errorf("%s: metric %s (%s) not in BENCHMARK.json as listed (%q)", name, k, m.unit, u)
			}
		}
		if len(got) != len(want) {
			t.Errorf("%s: emits %d metrics, BENCHMARK.json lists %d", name, len(got), len(want))
		}
	}
}

// TestMinRuns checks that the untraced passes go on past the deadline until
// they have timed the runs a quantile needs.
func TestMinRuns(t *testing.T) {
	w, err := newWorkload("steady", "mcf")
	if err != nil {
		t.Fatal(err)
	}
	out, err := measure(w, config{seed: 1, minRuns: 10})
	if err != nil {
		t.Fatal(err)
	}
	if out.runsTimed < 10 {
		t.Errorf("%d timed runs, want at least 10", out.runsTimed)
	}
}

// TestOracleGateFails tampers with one program's native reference: every
// run of that program must then count as failed.
func TestOracleGateFails(t *testing.T) {
	w, err := newWorkload("figure5", "mcf")
	if err != nil {
		t.Fatal(err)
	}
	progs, _, _, err := setup(w)
	if err != nil {
		t.Fatal(err)
	}
	progs[0].state.Digest ^= 1
	b := &bench{w: w, progs: progs, seed: 1, ref: make([]*runResult, len(w.runs))}
	b.pass(0, nil, false)
	if b.failed != len(w.runs) || b.attempted != len(w.runs) {
		t.Fatalf("%d of %d runs failed, want all %d", b.failed, b.attempted, len(w.runs))
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root")
	a := tr.begin("a")
	tr.begin("b") // left open, as by a panic: closing a closes it too
	tr.end(a)
	tr.end(root)
	if len(tr.open) != 0 {
		t.Fatalf("%d spans still open", len(tr.open))
	}
	tr.spans[0].start, tr.spans[0].end = 0, 100
	tr.spans[1].start, tr.spans[1].end = 10, 70
	tr.spans[2].start, tr.spans[2].end = 20, 50
	self := map[string]int64{}
	for _, s := range selfTimes(tr.spans) {
		self[s.name] = s.selfNS
	}
	if self["root"] != 40 || self["a"] != 30 || self["b"] != 30 {
		t.Errorf("self times %v, want root 40, a 30, b 30", self)
	}
}

// TestWriteSpans checks that the span file is trace-event JSON with one
// complete event per span, in nanoseconds, carrying id, parent and run id.
func TestWriteSpans(t *testing.T) {
	spans := []span{
		{name: "run mcf/base", parent: -1, run: 1, start: 1000, end: 5000},
		{name: "core.Run", parent: 0, run: 1, start: 1500, end: 1800},
	}
	path := t.TempDir() + "/spans.json"
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Ts   uint64
			Dur  uint64
			Args map[string]int
		}
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("%v in %s", err, data)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("%d events, want 2", len(doc.TraceEvents))
	}
	e := doc.TraceEvents[1]
	if e.Name != "core.Run" || e.Ph != "X" || e.Ts != 1500 || e.Dur != 300 ||
		e.Args["id"] != 1 || e.Args["parent"] != 0 || e.Args["run"] != 1 {
		t.Errorf("second event %+v", e)
	}
}

func TestRunIDs(t *testing.T) {
	tr := newTracer()
	pass := tr.begin("pass")
	for i := 0; i < 2; i++ {
		r := tr.beginRun("run")
		tr.end(tr.begin("core.Run"))
		tr.end(r)
	}
	tr.end(tr.begin("after"))
	tr.end(pass)
	var got []int32
	for _, s := range tr.spans {
		got = append(got, s.run)
	}
	if want := []int32{0, 1, 1, 2, 2, 0}; !slices.Equal(got, want) {
		t.Errorf("run ids %v, want %v", got, want)
	}
}

// TestCommandOutput runs the command on the smallest full workload and
// checks the contract of its last output line.
func TestCommandOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full workload")
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "steady", "--seed", "3", "--seconds", "0.1", "--trace", "0"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if !strings.Contains(lines[0], "seed=3") || !strings.Contains(lines[1], "GOMAXPROCS=") {
		t.Errorf("header does not record the seed and host: %q", lines[:2])
	}
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(res))
	for k := range res {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if !slices.Equal(keys, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Errorf("result keys %v", keys)
	}
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 {
		t.Error("unknown workload accepted")
	}
}

func TestHDQuantile(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if got := hdQuantile(xs, 0.5); math.Abs(got-50) > 1e-9 {
		t.Errorf("median of 0..100 = %v, want 50", got)
	}
	if got := hdQuantile(xs, 0.9); got < 88 || got > 92 {
		t.Errorf("p90 of 0..100 = %v, want about 90", got)
	}
	// Two equal clusters: the median lies between them, not at an edge.
	two := make([]float64, 100)
	for i := range two {
		two[i] = float64(10 + 10*(i%2))
	}
	if got := hdQuantile(two, 0.5); math.Abs(got-15) > 1e-9 {
		t.Errorf("median of two clusters = %v, want 15", got)
	}
}
