package harness

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/workload"
)

// CachePoint is one column of the cache-size sweep: a bounded-cache
// configuration applied on top of the base runtime options. Bytes is the
// per-thread budget for both the basic-block and the trace cache; 0 means
// unbounded (the whole 2 MiB per-thread reservation, which never evicts).
type CachePoint struct {
	Name     string
	Bytes    int
	Adaptive bool
}

// Options returns the runtime options for this sweep point.
func (p CachePoint) Options() core.Options {
	o := core.Default()
	o.BBCacheSize = p.Bytes
	o.TraceCacheSize = p.Bytes
	o.AdaptiveCache = p.Adaptive
	return o
}

// DefaultSweep is the budget ladder of the cache-size experiment
// (EXPERIMENTS.md): fixed budgets from severe to comfortable pressure, the
// unbounded baseline, and the adaptive sizer starting from the smallest
// fixed budget. The ladder is scaled to the synthetic suite's working sets
// (most benchmarks keep 0.7–1.8 KiB of live code; gcc and perlbmk tens of
// KiB), so 512 bytes pressures everything and 4 KiB only the two giants.
func DefaultSweep() []CachePoint {
	return []CachePoint{
		{Name: "512", Bytes: 512},
		{Name: "1k", Bytes: 1 << 10},
		{Name: "2k", Bytes: 2 << 10},
		{Name: "4k", Bytes: 4 << 10},
		{Name: "unbounded", Bytes: 0},
		{Name: "adaptive", Bytes: 512, Adaptive: true},
	}
}

// CacheCell is one (benchmark, sweep point) measurement.
type CacheCell struct {
	Normalized float64 // ticks / native ticks
	Ticks      machine.Ticks
	Stats      core.Stats
}

// CacheSweepRow is one benchmark's line of the sweep.
type CacheSweepRow struct {
	Benchmark string
	Class     workload.Class
	Cells     []CacheCell // parallel to the sweep points
}

// CacheSweep evaluates the (benchmark × cache point) matrix through Matrix,
// one independent simulated machine per cell, returning one row per
// benchmark in input order. workers <= 0 means one per GOMAXPROCS; results
// are bit-identical for any worker count. A failing cell is reported in the
// joined error while the rest of the matrix still runs.
func CacheSweep(workers int, benches []*workload.Benchmark, points []CachePoint) ([]CacheSweepRow, error) {
	np := len(points)
	res, err := runGrid(workers, benches, np, func(p int) (string, core.Options, []core.Client) {
		return points[p].Name, points[p].Options(), nil
	})
	rows := make([]CacheSweepRow, len(benches))
	for i, b := range benches {
		rows[i] = CacheSweepRow{Benchmark: b.Name, Class: b.Class, Cells: make([]CacheCell, np)}
		for p, r := range res[i*np : (i+1)*np] {
			if r != nil {
				rows[i].Cells[p] = CacheCell{Normalized: r.Normalized, Ticks: r.Ticks, Stats: r.RIOStats}
			}
		}
	}
	return rows, err
}

// CacheSweepMeans returns the geometric mean of normalized time per sweep
// point over all rows.
func CacheSweepMeans(points []CachePoint, rows []CacheSweepRow) []float64 {
	means := make([]float64, len(points))
	for p := range points {
		var xs []float64
		for _, r := range rows {
			xs = append(xs, r.Cells[p].Normalized)
		}
		means[p] = GeoMean(xs)
	}
	return means
}

// FormatCacheSweep renders the sweep: normalized time per point, and below
// it the eviction/regeneration counts that explain the slowdowns (a point
// whose time is near 1.0 with nonzero evictions is the interesting regime —
// the cache is working hard and it doesn't matter).
func FormatCacheSweep(points []CachePoint, rows []CacheSweepRow) string {
	var b strings.Builder
	b.WriteString("Cache sweep: normalized execution time by per-thread cache budget\n")
	fmt.Fprintf(&b, "%-10s %-4s", "benchmark", "cls")
	for _, p := range points {
		fmt.Fprintf(&b, " %10s", p.Name)
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-4s", r.Benchmark, r.Class)
		for p := range points {
			fmt.Fprintf(&b, " %10.3f", r.Cells[p].Normalized)
		}
		b.WriteByte('\n')
	}
	if len(rows) > 2 {
		fmt.Fprintf(&b, "%-10s %-4s", "mean-all", "")
		for _, m := range CacheSweepMeans(points, rows) {
			fmt.Fprintf(&b, " %10.3f", m)
		}
		b.WriteByte('\n')
	}
	b.WriteString("\nevictions / regenerations / resizes\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-4s", r.Benchmark, r.Class)
		for p := range points {
			s := r.Cells[p].Stats
			fmt.Fprintf(&b, " %10s", fmt.Sprintf("%d/%d/%d", s.Evictions, s.Regenerations, s.CacheResizes))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
