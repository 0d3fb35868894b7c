package fuzz

import (
	"testing"

	"repro/internal/image"
	"repro/internal/machine"
	"repro/internal/oracle"
)

// stepRun is Machine.Run's round-robin schedule (5000-step quanta, one
// shared limit) driven one Machine.Step at a time. Native references and
// runtime runs both execute through Run's straight-line fast path, so a
// deterministic bug there could show on both sides of the differential and
// pass the oracle; Step is the independent, precise reference.
func stepRun(m *machine.Machine, limit uint64) error {
	const quantum = 5000
	executed := uint64(0)
	for {
		live := 0
		for _, t := range m.Threads {
			if t.Halted {
				continue
			}
			live++
			q := uint64(quantum)
			if limit > 0 {
				if executed >= limit {
					return machine.ErrLimit
				}
				q = min(q, limit-executed)
			}
			for ; q > 0; q-- {
				if err := m.Step(t); err != nil {
					return err
				}
				executed++
				if t.Halted {
					break
				}
			}
		}
		if live == 0 {
			return nil
		}
	}
}

// endpoint is what a native run must reproduce: the oracle state plus the
// simulated clock and counters.
type endpoint struct {
	state oracle.State
	ticks machine.Ticks
	stats machine.Stats
}

// nativeEndpoint runs img on a bare machine with run (Run or stepRun).
// guarded arms the guard page as RunNative does; with it armed every step
// takes the precise Step path, so the unguarded run is the one that
// exercises the fast path.
func nativeEndpoint(img *image.Image, guarded bool, run func(*machine.Machine, uint64) error) (endpoint, error) {
	m := machine.New(machine.PentiumIV())
	img.Boot(m)
	if guarded {
		protectGuard(m)
	}
	if err := run(m, runLimit); err != nil {
		return endpoint{}, err
	}
	return endpoint{state: oracle.Capture(m), ticks: m.Ticks, stats: m.Stats}, nil
}

// TestNativeRunMatchesStepwise checks Machine.Run against the stepwise
// reference on the programs of the 200-seed CI smoke campaign.
func TestNativeRunMatchesStepwise(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		img, err := BuildImage(Generate(seed, 40))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, guarded := range []bool{true, false} {
			fast, err := nativeEndpoint(img, guarded, (*machine.Machine).Run)
			if err != nil {
				t.Fatalf("seed %d guarded=%v: Run: %v", seed, guarded, err)
			}
			ref, err := nativeEndpoint(img, guarded, stepRun)
			if err != nil {
				t.Fatalf("seed %d guarded=%v: stepwise: %v", seed, guarded, err)
			}
			switch {
			case !oracle.Equal(ref.state, fast.state):
				t.Errorf("seed %d guarded=%v: Run diverged from the stepwise reference: %s",
					seed, guarded, oracle.Mismatch(ref.state, fast.state))
			case fast.ticks != ref.ticks || fast.stats != ref.stats:
				t.Errorf("seed %d guarded=%v: Run ticks %d stats %+v, stepwise ticks %d stats %+v",
					seed, guarded, fast.ticks, fast.stats, ref.ticks, ref.stats)
			}
		}
	}
}
