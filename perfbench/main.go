// Command perfbench is the repository's benchmark. It runs one workload of
// suite programs under the runtime in a single goroutine, checks every run
// against its native reference through internal/oracle, and prints every
// metric by name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Untraced (--trace 0) it reports the end-to-end metrics; traced (--trace 1)
// it times each layer's calls from outside, reports the per-layer metrics
// and writes the spans as Chrome trace-event JSON. See README.md for the
// workloads and for which layer metric should move which end-to-end metric.
//
//	go run . --workload steady --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// maxProcs leaves the garbage collector a core of the two the runs share.
const maxProcs = 2

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "shuffles the run order of every pass")
	seconds := fs.Float64("seconds", 10, "how long the passes run, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: want --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		return 2
	}
	w, err := newWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if runtime.GOMAXPROCS(0) > maxProcs {
		runtime.GOMAXPROCS(maxProcs)
	}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%d\n", w.name, *seed, *seconds, *trace)
	fmt.Fprintf(stdout, "host nproc=%d GOMAXPROCS=%d go=%s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)

	cfg := config{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), traced: *trace == 1}
	if !cfg.traced {
		cfg.minRuns = minTimedRuns // run_ms_p90 is reported only untraced
	}
	out, err := measure(w, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	report(stdout, w, out)
	if cfg.traced {
		path := filepath.Join(".bench_build", "spans", w.name+".json")
		if err := writeSpans(path, out.spans); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(out.spans), path)
	}
	if err := writeResult(stdout, out); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if out.failed > 0 {
		return 1
	}
	return 0
}

// report prints the human-readable account of the run.
func report(wr io.Writer, w *workloadDef, out *outcome) {
	fmt.Fprintf(wr, "programs=%d runs/pass=%d passes=%d timed-runs=%d attempted=%d failed=%d\n",
		len(w.progs), len(w.runs), out.passes, out.runsTimed, out.attempted, out.failed)
	for _, e := range out.errs {
		fmt.Fprintln(wr, "FAIL", e)
	}
	if out.blocksDropped > 0 {
		fmt.Fprintf(wr, "instr: %d harvested blocks could not be re-encoded and were left out\n", out.blocksDropped)
	}
	fmt.Fprint(wr, "median host ms per pass by program:")
	for i, ms := range out.progMS {
		fmt.Fprintf(wr, " %s=%.1f", w.progs[i].Name, ms)
	}
	fmt.Fprintln(wr)
	for _, m := range out.metrics {
		fmt.Fprintf(wr, "  %-34s %14.6g %s\n", m.name, m.value, m.unit)
	}
	if len(out.spans) > 0 {
		fmt.Fprintf(wr, "self time by span (duration minus child spans), %d traced passes:\n", out.passes)
		for _, t := range selfTimes(out.spans) {
			fmt.Fprintf(wr, "  %-34s n=%-8d total %10.3f ms  self %10.3f ms\n",
				t.name, t.count, float64(t.totalNS)/1e6, float64(t.selfNS)/1e6)
		}
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// writeResult prints the result object as the last line of output.
func writeResult(wr io.Writer, out *outcome) error {
	res := jsonResult{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, m := range out.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v, res.Correct = 0, false
		}
		res.Metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(wr, "%s\n", line)
	return err
}
