// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus ablations of the design choices DESIGN.md calls out. Each benchmark
// iteration performs one full simulated run; the paper's numbers are
// reported as custom metrics (normalized-time, µs/block, bytes/block) so
// the series can be read straight out of `go test -bench`.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/clients/ibdispatch"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/image"
	"repro/internal/instr"
	"repro/internal/machine"
	"repro/internal/oracle"
	"repro/internal/workload"
)

// BenchmarkTable1 regenerates the paper's Table 1: the feature ladder
// (emulation → +bb cache → +direct links → +indirect links → +traces) on
// crafty and vpr, reporting normalized execution time as the paper does.
func BenchmarkTable1(b *testing.B) {
	systems := []string{"emulate", "bbcache", "direct", "indirect", "traces"}
	ladder := core.TableOneLadder()
	for _, name := range []string{"crafty", "vpr"} {
		bench := workload.ByName(name)
		for i, opts := range ladder {
			opts := opts
			b.Run(fmt.Sprintf("%s/%s", name, systems[i]), func(b *testing.B) {
				var norm float64
				for n := 0; n < b.N; n++ {
					norm = harness.RunConfig(bench, opts).Normalized
				}
				b.ReportMetric(norm, "normalized-time")
			})
		}
	}
}

// BenchmarkTable2 regenerates the paper's Table 2: decode-then-encode cost
// of the suite's basic blocks at each representation level. Time per block
// is the benchmark's own ns/op; memory per block is reported as a metric.
func BenchmarkTable2(b *testing.B) {
	blocks := harness.HarvestBlocks()
	for lv := instr.Level0; lv <= instr.Level4; lv++ {
		lv := lv
		b.Run(fmt.Sprintf("Level%d", lv), func(b *testing.B) {
			var mem int
			for n := 0; n < b.N; n++ {
				blk := blocks[n%len(blocks)]
				l := harness.DecodeEncodeAt(blk.Raw, blk.PC, lv)
				mem += l.MemUsage()
			}
			b.ReportMetric(float64(mem)/float64(b.N), "bytes/block")
		})
	}
}

// BenchmarkFigure5 regenerates the paper's Figure 5: every suite benchmark
// under the base system and each optimization configuration, reporting
// normalized execution time.
func BenchmarkFigure5(b *testing.B) {
	benches := workload.All()
	if testing.Short() {
		benches = []*workload.Benchmark{
			workload.ByName("mgrid"), workload.ByName("crafty"), workload.ByName("gcc"),
		}
	}
	for _, w := range benches {
		for c := harness.ConfigBase; c < harness.NumOptConfigs; c++ {
			w, c := w, c
			b.Run(fmt.Sprintf("%s/%s", w.Name, c), func(b *testing.B) {
				var norm float64
				for n := 0; n < b.N; n++ {
					// The paper-era base system (see harness.Figure5Options):
					// Figure 5 measures the client optimizations against it.
					norm = harness.RunConfig(w, harness.Figure5Options(), harness.ClientsFor(c)...).Normalized
				}
				b.ReportMetric(norm, "normalized-time")
			})
		}
	}
}

// BenchmarkAblationTraceThreshold sweeps the trace-head threshold (the
// counter value that triggers trace creation; Dynamo used 50).
func BenchmarkAblationTraceThreshold(b *testing.B) {
	w := workload.ByName("crafty")
	for _, th := range []int{10, 25, 50, 100, 400} {
		th := th
		b.Run(fmt.Sprintf("threshold=%d", th), func(b *testing.B) {
			opts := core.Default()
			opts.TraceThreshold = th
			var norm float64
			for n := 0; n < b.N; n++ {
				norm = harness.RunConfig(w, opts).Normalized
			}
			b.ReportMetric(norm, "normalized-time")
		})
	}
}

// BenchmarkAblationIBLTable sweeps the indirect-branch lookup hashtable
// size: smaller tables suffer more collision misses (full context
// switches). The legacy direct-mapped table is pinned so the sweep shows
// the conflict-miss curve; the adaptive open-address replacement (which
// flattens it) is measured by drbench -iblsweep.
func BenchmarkAblationIBLTable(b *testing.B) {
	w := workload.ByName("eon")
	for _, bits := range []uint{2, 4, 8, 10} {
		bits := bits
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			opts := harness.Figure5Options()
			opts.IBLTableBits = bits
			var res *harness.ConfigResult
			for n := 0; n < b.N; n++ {
				res = harness.RunConfig(w, opts)
			}
			b.ReportMetric(res.Normalized, "normalized-time")
			b.ReportMetric(float64(res.RIOStats.IBLMisses), "ibl-misses")
		})
	}
}

// BenchmarkAblationThreadCaches compares thread-private code caches (the
// paper's design) against a shared cache with synchronization costs, on a
// multithreaded program. A run whose state differs from native fails.
func BenchmarkAblationThreadCaches(b *testing.B) {
	img := threadedImage()
	nm := machine.New(machine.PentiumIV())
	img.Boot(nm)
	if err := nm.Run(0); err != nil {
		b.Fatal(err)
	}
	native := oracle.Capture(nm)
	for _, shared := range []bool{false, true} {
		shared := shared
		name := "private"
		if shared {
			name = "shared"
		}
		b.Run(name, func(b *testing.B) {
			var ticks machine.Ticks
			for n := 0; n < b.N; n++ {
				m := machine.New(machine.PentiumIV())
				opts := core.Default()
				opts.SharedCache = shared
				r := core.New(m, img, opts, nil)
				if err := r.Run(0); err != nil {
					b.Fatal(err)
				}
				if msg := oracle.Mismatch(native, oracle.Capture(m)); msg != "" {
					b.Fatalf("%s cache: %s", name, msg)
				}
				ticks = m.Ticks
			}
			b.ReportMetric(float64(ticks.Cycles()), "cycles")
		})
	}
}

// BenchmarkVM measures the raw simulated-machine throughput (simulated
// instructions per second of host time), the substrate everything else
// rides on.
func BenchmarkVM(b *testing.B) {
	w := workload.ByName("vpr")
	img := w.Image()
	for n := 0; n < b.N; n++ {
		m := machine.New(machine.PentiumIV())
		img.Boot(m)
		if err := m.Run(0); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(m.Stats.Instructions))
	}
}

// threadedImage builds a two-thread program for the cache ablation.
func threadedImage() *image.Image {
	return image.MustAssemble("threads", `
main:
    mov eax, 5          ; spawn
    mov ebx, worker
    mov ecx, 0x300000
    int 0x80
    mov ecx, 8000
mloop:
    add edx, ecx
    dec ecx
    jnz mloop
wait:
    mov eax, [done]
    test eax, eax
    jz wait
    mov eax, 1
    mov ebx, 0
    int 0x80
worker:
    mov ecx, 8000
wloop:
    add esi, ecx
    dec ecx
    jnz wloop
    mov dword [done], 1
    mov eax, 1
    mov ebx, 0
    int 0x80
.org 0x500000
done: .word 0
`)
}

// BenchmarkAblationDispatchChain sweeps the ibdispatch compare-chain length
// (the paper's Figure 4 inserts pairs for "the hottest targets"; more pairs
// catch more misses but lengthen the path).
func BenchmarkAblationDispatchChain(b *testing.B) {
	w := workload.ByName("perlbmk") // rotating 16-way dispatch
	for _, maxTargets := range []int{1, 2, 4, 8} {
		maxTargets := maxTargets
		b.Run(fmt.Sprintf("targets=%d", maxTargets), func(b *testing.B) {
			var norm float64
			for n := 0; n < b.N; n++ {
				cl := ibdispatch.New()
				cl.MaxTargets = maxTargets
				norm = harness.RunConfig(w, core.Default(), cl).Normalized
			}
			b.ReportMetric(norm, "normalized-time")
		})
	}
}
