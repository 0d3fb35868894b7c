package core

import (
	"reflect"
	"sync/atomic"
)

// Stats concurrency protocol. The runtime itself is single-goroutine (the
// machine steps all simulated threads round-robin), but harnesses read
// statistics from other goroutines — progress displays mid-run, the
// parallel sweep collecting results. Every write to a Stats counter
// therefore goes through statInc/statAdd (atomic adds), and concurrent
// readers use StatsSnapshot, which atomically loads each counter and
// aggregates the live-byte gauges across all cache regions. Reading
// r.Stats fields directly remains fine once the run has finished.

// statInc atomically increments one Stats counter.
func statInc(p *uint64) { atomic.AddUint64(p, 1) }

// statAdd atomically adds n to one Stats counter.
func statAdd(p *uint64, n uint64) { atomic.AddUint64(p, n) }

// statMax atomically raises one Stats counter to v if v is larger (used for
// high-water marks like the IBL probe length).
func statMax(p *uint64, v uint64) {
	for {
		cur := atomic.LoadUint64(p)
		if v <= cur || atomic.CompareAndSwapUint64(p, cur, v) {
			return
		}
	}
}

// StatsSnapshot returns a consistent copy of the runtime's counters, safe
// to call concurrently with running threads: every Stats field is loaded
// atomically (reflection keeps the copy complete as counters are added; the
// snapshot is not on a hot path). The live-byte gauges are then summed over
// the cache regions at snapshot time, counting a region shared by several
// threads (SharedCache) once.
func (r *RIO) StatsSnapshot() Stats {
	var s Stats
	src, dst := reflect.ValueOf(&r.Stats).Elem(), reflect.ValueOf(&s).Elem()
	for i := range dst.NumField() {
		dst.Field(i).SetUint(atomic.LoadUint64(src.Field(i).Addr().Interface().(*uint64)))
	}
	r.ctxMu.RLock()
	seen := map[*cacheRegion]bool{}
	for _, ctx := range r.contexts {
		if seen[ctx.bb] {
			continue // the shared pair, already counted
		}
		seen[ctx.bb] = true
		s.BBCacheLiveBytes += uint64(ctx.bb.liveBytes.Load())
		s.TraceCacheLiveBytes += uint64(ctx.trace.liveBytes.Load())
	}
	r.ctxMu.RUnlock()
	return s
}

// LiveFragmentCounts counts the live (non-dead) fragments registered across
// all thread contexts, by kind. With a shared cache the fragment map is one
// instance; it is counted once. Together with the per-kind deletion
// counters this backs the conservation invariant the observability tests
// check: every built fragment is either still live or was delivered dead.
func (r *RIO) LiveFragmentCounts() (bb, trace uint64) {
	r.ctxMu.RLock()
	defer r.ctxMu.RUnlock()
	seen := map[*Fragment]struct{}{}
	for _, ctx := range r.contexts {
		for _, f := range ctx.frags {
			for cur := f; cur != nil; cur = cur.shadowedBy {
				if cur.dead {
					continue
				}
				if _, dup := seen[cur]; dup {
					continue
				}
				seen[cur] = struct{}{}
				if cur.Kind == KindTrace {
					trace++
				} else {
					bb++
				}
			}
		}
	}
	return bb, trace
}
