package fuzz

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/image"
	"repro/internal/machine"
	"repro/internal/oracle"
)

// runLimit bounds one simulated run. Generated programs execute a few
// million instructions at most; hitting this limit means a generator or
// mangling bug produced divergent control flow that never terminates, which
// is reported as an infrastructure error rather than a mismatch.
const runLimit = 600_000_000

// Config is one runtime column of the differential matrix.
type Config struct {
	Name string
	Opts func() core.Options
}

// Configs returns the four-column matrix every generated program runs under:
// the full default runtime, FIFO-evicting 4 KiB caches, the fixed-size IBL
// table (adaptive growth off), and flag-save elision off. The last column
// doubles as the ablation oracle: a mismatch that appears in the elision-on
// columns but not here is localized to the elision machinery.
func Configs() []Config {
	return []Config{
		{"default", core.Default},
		{"4k", func() core.Options {
			o := core.Default()
			o.BBCacheSize, o.TraceCacheSize = 4<<10, 4<<10
			return o
		}},
		{"ibl-fixed", func() core.Options {
			o := core.Default()
			o.IBLAdaptive = false
			o.IBLTableBits = 6
			return o
		}},
		{"noelide", func() core.Options {
			o := core.Default()
			o.FlagsElision = false
			return o
		}},
	}
}

// BuildImage renders and assembles the program.
func BuildImage(p *Prog) (*image.Image, error) {
	return image.Assemble(fmt.Sprintf("fuzz-%d", p.Seed), Render(p))
}

// protectGuard arms the guard page identically in every run.
func protectGuard(m *machine.Machine) {
	m.Mem.Protect(GuardPage, GuardPage+0x1000, machine.ProtNoRead|machine.ProtNoWrite)
}

// RunNative executes the image on a bare machine and captures the endpoint.
func RunNative(img *image.Image) (oracle.State, error) {
	m := machine.New(machine.PentiumIV())
	img.Boot(m)
	protectGuard(m)
	if err := m.Run(runLimit); err != nil {
		return oracle.State{}, fmt.Errorf("native: %w", err)
	}
	return oracle.Capture(m), nil
}

// RunConfig executes the image under the runtime with the given options.
func RunConfig(img *image.Image, opts core.Options) (oracle.State, error) {
	m := machine.New(machine.PentiumIV())
	r := core.New(m, img, opts, nil)
	protectGuard(m)
	if err := r.Run(runLimit); err != nil {
		return oracle.State{}, err
	}
	return oracle.Capture(m), nil
}

// Outcome is one (program, config) comparison.
type Outcome struct {
	Config   string `json:"config"`
	Match    bool   `json:"match"`
	Mismatch string `json:"mismatch,omitempty"`
}

// Report is one program's differential across the whole matrix.
type Report struct {
	Seed     int64     `json:"seed"`
	Stmts    int       `json:"stmts"`
	Fault    bool      `json:"fault"`
	Outcomes []Outcome `json:"outcomes"`
}

// Passed reports whether every configuration matched native.
func (r *Report) Passed() bool {
	for _, o := range r.Outcomes {
		if !o.Match {
			return false
		}
	}
	return true
}

// FirstMismatch returns the first failing outcome, if any.
func (r *Report) FirstMismatch() (Outcome, bool) {
	for _, o := range r.Outcomes {
		if !o.Match {
			return o, true
		}
	}
	return Outcome{}, false
}

// Check runs p natively and under every matrix configuration, comparing
// architectural endpoints through the oracle. mutate, when non-nil, is
// applied to each configuration's options before the run — the
// mutation-testing lever (e.g. core.Options.ForceFlagsDead) that proves the
// oracle catches real transparency violations.
func Check(p *Prog, mutate func(*core.Options)) (*Report, error) {
	img, err := BuildImage(p)
	if err != nil {
		return nil, fmt.Errorf("seed %d: %w", p.Seed, err)
	}
	want, err := RunNative(img)
	if err != nil {
		return nil, fmt.Errorf("seed %d: %w", p.Seed, err)
	}
	rep := &Report{Seed: p.Seed, Stmts: p.NumStmts(), Fault: p.Fault}
	for _, cfg := range Configs() {
		opts := cfg.Opts()
		if mutate != nil {
			mutate(&opts)
		}
		got, err := RunConfig(img, opts)
		if err != nil {
			return nil, fmt.Errorf("seed %d under %s: %w", p.Seed, cfg.Name, err)
		}
		rep.Outcomes = append(rep.Outcomes, Outcome{
			Config:   cfg.Name,
			Match:    oracle.Equal(want, got),
			Mismatch: oracle.Mismatch(want, got),
		})
	}
	return rep, nil
}

// Campaign generates and checks one program per seed through harness.Matrix
// (workers <= 0 means one per GOMAXPROCS). Results are in seed order and
// deterministic for any worker count. Infrastructure errors (assembly
// failures, run-limit overruns) are joined into the returned error, and
// their seeds are left out of the reports; architectural mismatches are
// reported in the per-seed Reports, not as errors.
func Campaign(workers int, seeds []int64, maxOps int, mutate func(*core.Options)) ([]*Report, error) {
	reports, err := harness.Matrix(workers, len(seeds), func(i int) (*Report, error) {
		return Check(Generate(seeds[i], maxOps), mutate)
	})
	out := reports[:0]
	for _, r := range reports {
		if r != nil {
			out = append(out, r)
		}
	}
	return out, err
}
