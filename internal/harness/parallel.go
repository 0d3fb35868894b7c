package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/workload"
)

// RunMatrix evaluates the full (benchmark × Figure-5 configuration) matrix
// through Matrix and returns one row per benchmark, in input order.
// workers <= 0 means one worker per GOMAXPROCS.
//
// Every cell is an independent simulated Machine with fresh client
// instances, and the native-baseline cache serializes per benchmark, so the
// rows are bit-identical for any worker count. A cell that fails (or
// panics) is reported in the joined error while the remaining cells still
// run.
func RunMatrix(workers int, benches []*workload.Benchmark, opts core.Options) ([]Figure5Row, error) {
	nc := int(NumOptConfigs)
	res, err := runGrid(workers, benches, nc, func(c int) (string, core.Options, []core.Client) {
		return OptConfig(c).String(), opts, ClientsFor(OptConfig(c))
	})
	rows := make([]Figure5Row, len(benches))
	for i, b := range benches {
		rows[i] = Figure5Row{Benchmark: b.Name, Class: b.Class}
		for c, r := range res[i*nc : (i+1)*nc] {
			if r != nil {
				rows[i].Normalized[c] = r.Normalized
				rows[i].Ticks[c] = r.Ticks
			}
		}
	}
	return rows, err
}

// runGrid runs every (benchmark, column) cell of a configuration sweep
// through Matrix, column c configured by col(c), and returns the results
// benchmark-major (nil for a failed cell). col is called once per cell, so
// it can hand out fresh client instances.
func runGrid(workers int, benches []*workload.Benchmark, ncols int,
	col func(c int) (name string, opts core.Options, clients []core.Client)) ([]*ConfigResult, error) {
	return Matrix(workers, len(benches)*ncols, func(k int) (*ConfigResult, error) {
		b := benches[k/ncols]
		name, opts, clients := col(k % ncols)
		res, err := RunConfigErr(b, opts, clients...)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", b.Name, name, err)
		}
		return res, nil
	})
}

// Figure5Options returns the configuration Figure 5 measures against: the
// paper's base system. The indirect-branch lookup is pinned to the fixed
// direct-mapped table without flag-save elision, so the Section 4 client
// optimizations (which attack exactly that indirect-branch overhead) are
// compared against the system the paper describes. The adaptive
// open-address IBL and eflags-liveness elision are evaluated separately by
// the IBL sweep (drbench -iblsweep), which includes this configuration as
// its ablation baseline.
func Figure5Options() core.Options {
	o := core.Default()
	o.IBLDirectMapped = true
	o.IBLAdaptive = false
	o.FlagsElision = false
	return o
}

// Figure5Parallel reproduces Figure 5 with the given worker count (<= 0
// means one worker per GOMAXPROCS). With names non-empty, only those
// benchmarks run. The rows are bit-identical to the serial Figure5.
func Figure5Parallel(workers int, names ...string) ([]Figure5Row, error) {
	benches, err := Benchmarks(names)
	if err != nil {
		return nil, err
	}
	return RunMatrix(workers, benches, Figure5Options())
}

// Benchmarks resolves benchmark names to the suite's benchmarks, in the
// given order; no names means the whole suite.
func Benchmarks(names []string) ([]*workload.Benchmark, error) {
	if len(names) == 0 {
		return workload.All(), nil
	}
	benches := make([]*workload.Benchmark, 0, len(names))
	for _, n := range names {
		b := workload.ByName(n)
		if b == nil {
			return nil, fmt.Errorf("harness: unknown benchmark %s", n)
		}
		benches = append(benches, b)
	}
	return benches, nil
}
