package core_test

// Property tests for the FIFO cache allocator: after every forced
// eviction, the runtime's link graph and lookup structures must contain no
// trace of the victim — no outgoing link and no IBL hashtable entry may
// target freed cache memory — and the freed bytes must actually be reused
// (the cache stays within its byte budget no matter how much code the
// workload churns through). The eviction and resize client hooks fire at
// dispatcher safe points, when the thread is outside the cache, so a client
// can walk the full structures there; Context.CheckCacheInvariants is that
// walk.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/workload"
)

// invariantChecker is a client that audits the runtime's cache data
// structures on every eviction and resize event.
type invariantChecker struct {
	t         *testing.T
	evictions int
	resizes   int
	failed    bool
	ctx       *core.Context // last context seen, for end-of-run assertions
}

func (c *invariantChecker) Name() string { return "invariant-checker" }

func (c *invariantChecker) check(ctx *core.Context, event string) {
	c.ctx = ctx
	if c.failed {
		return // one violation is enough; don't flood the log
	}
	if err := ctx.CheckCacheInvariants(); err != nil {
		c.failed = true
		c.t.Errorf("after %s: %v", event, err)
	}
}

func (c *invariantChecker) FragmentEvicted(ctx *core.Context, tag machine.Addr, kind core.FragmentKind) {
	c.evictions++
	c.check(ctx, "eviction")
}

func (c *invariantChecker) CacheResized(ctx *core.Context, kind core.FragmentKind, oldBytes, newBytes int) {
	c.resizes++
	c.check(ctx, "resize")
}

// invariantWorkloads is the subset of the suite the property tests run:
// enough variety (loops, indirect branches, recursion, self-modifying code
// pressure) to exercise every eviction path without re-running the full
// 22-benchmark matrix the differential oracle already covers.
func invariantWorkloads(t *testing.T) []*workload.Benchmark {
	t.Helper()
	var bs []*workload.Benchmark
	for _, name := range []string{"gzip", "gcc", "crafty", "perlbmk", "vortex", "mgrid"} {
		b := workload.ByName(name)
		if b == nil {
			t.Fatalf("workload %q not in suite", name)
		}
		bs = append(bs, b)
	}
	return bs
}

// TestEvictionInvariants runs the differential configurations with a client
// that re-validates the link graph, byte accounting and IBL hashtable after
// every single eviction and resize, and once more on every thread at run
// end — the only audit the never-evicting unbounded column gets, along with
// its live-byte gauge.
func TestEvictionInvariants(t *testing.T) {
	configs := diffConfigs()
	for _, b := range invariantWorkloads(t) {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			sawEvictions := false
			for _, cfg := range configs {
				chk := &invariantChecker{t: t}
				m := machine.New(machine.PentiumIV())
				r := core.New(m, b.Image(), cfg.opts(), nil, chk)
				if err := r.Run(diffRunLimit); err != nil {
					t.Fatalf("%s: %v", cfg.name, err)
				}
				if chk.evictions > 0 {
					sawEvictions = true
				}
				if uint64(chk.evictions) != r.Stats.Evictions {
					t.Errorf("%s: client saw %d evictions, stats counted %d",
						cfg.name, chk.evictions, r.Stats.Evictions)
				}
				var bbLive uint64
				for _, th := range m.Threads {
					ctx := r.ContextOf(th)
					chk.check(ctx, cfg.name+" run end")
					live, _ := ctx.CacheUsage(core.KindBasicBlock)
					bbLive += uint64(live)
				}
				if s := r.StatsSnapshot(); !cfg.pressured && (bbLive == 0 || s.BBCacheLiveBytes != bbLive) {
					t.Errorf("%s: snapshot bb live bytes %d, regions hold %d",
						cfg.name, s.BBCacheLiveBytes, bbLive)
				}
			}
			if !sawEvictions {
				t.Error("no pressured configuration delivered an eviction event")
			}
		})
	}
}

// TestEvictionReusesFreedSpace pins the budget-respecting property directly:
// a non-adaptive 4 KiB basic-block cache must never grow (every block fits,
// so the ratchet escape hatch stays cold) even while the workload builds far
// more code than fits — which is only possible if freed bytes are reused.
func TestEvictionReusesFreedSpace(t *testing.T) {
	const budget = 4096
	for _, b := range invariantWorkloads(t) {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			chk := &invariantChecker{t: t}
			o := core.Default()
			o.BBCacheSize, o.TraceCacheSize = budget, budget
			m := machine.New(machine.PentiumIV())
			r := core.New(m, b.Image(), o, nil, chk)
			if err := r.Run(diffRunLimit); err != nil {
				t.Fatal(err)
			}
			if chk.ctx == nil {
				t.Skip("workload fit without a single eviction or resize event")
			}
			live, cap := chk.ctx.CacheUsage(core.KindBasicBlock)
			if cap != budget {
				t.Errorf("bb cache capacity = %d, want the fixed %d budget", cap, budget)
			}
			if live > cap {
				t.Errorf("bb cache live bytes %d exceed capacity %d", live, cap)
			}
			if r.Stats.Evictions == 0 {
				t.Errorf("no evictions: the reuse property was not exercised (blocks built: %d)",
					r.Stats.BlocksBuilt)
			}
		})
	}
}
