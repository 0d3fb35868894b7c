package main

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/workload"
)

// runSpec is one program run under the runtime: a suite program, the
// runtime options and a factory for fresh client instances (clients hold
// per-run state and are never shared between runs).
type runSpec struct {
	prog    int // index into the workload's programs
	config  string
	opts    core.Options
	clients func() []core.Client
}

// workloadDef is one benchmark workload: the fixed set of suite programs it
// runs natively at set-up, and the runtime runs making up one pass.
type workloadDef struct {
	name  string
	progs []*workload.Benchmark
	runs  []runSpec
}

// churnBudgets are the per-thread basic-block and trace cache budgets of the
// churn workload: each is below the program's working set, so the FIFO
// eviction path rebuilds fragments throughout the run.
var churnBudgets = []struct {
	name  string
	bytes int
}{
	{"gcc", 4 << 10},
	{"perlbmk", 4 << 10},
	{"crafty", 1 << 10},
	{"gap", 1 << 10},
	{"vortex", 1 << 10},
	{"eon", 512},
}

// workloadNames lists the workloads in the order BENCHMARK.json names them.
var workloadNames = []string{"steady", "churn", "figure5"}

// newWorkload builds the named workload. With only non-empty, the workload
// keeps just those programs (tests use it to stay short).
func newWorkload(name string, only ...string) (*workloadDef, error) {
	w := &workloadDef{name: name}
	add := func(b *workload.Benchmark) int {
		w.progs = append(w.progs, b)
		return len(w.progs) - 1
	}
	keep := func(n string) bool { return len(only) == 0 || slices.Contains(only, n) }
	noClients := func() []core.Client { return nil }
	switch name {
	case "steady":
		for _, b := range workload.All() {
			if b.Name == "gcc" || b.Name == "perlbmk" || !keep(b.Name) {
				continue
			}
			w.runs = append(w.runs, runSpec{prog: add(b), config: "default", opts: core.Default(), clients: noClients})
		}
	case "churn":
		for _, c := range churnBudgets {
			if !keep(c.name) {
				continue
			}
			o := core.Default()
			o.BBCacheSize = c.bytes
			o.TraceCacheSize = c.bytes
			w.runs = append(w.runs, runSpec{
				prog:    add(workload.ByName(c.name)),
				config:  fmt.Sprintf("fifo-%d", c.bytes),
				opts:    o,
				clients: noClients,
			})
		}
	case "figure5":
		for _, b := range workload.All() {
			if !keep(b.Name) {
				continue
			}
			p := add(b)
			for c := harness.ConfigBase; c < harness.NumOptConfigs; c++ {
				w.runs = append(w.runs, runSpec{
					prog:    p,
					config:  c.String(),
					opts:    harness.Figure5Options(),
					clients: func() []core.Client { return harness.ClientsFor(c) },
				})
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if len(w.runs) == 0 {
		return nil, fmt.Errorf("workload %q: no programs selected by %v", name, only)
	}
	return w, nil
}

// key names a run uniquely within its workload.
func (w *workloadDef) key(s runSpec) string {
	return w.progs[s.prog].Name + "/" + s.config
}
