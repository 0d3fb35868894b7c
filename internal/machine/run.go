package machine

// Straight-line runs: the fast path of Machine.Run.
//
// Step pays, for every instruction, a decode call with its SubGen page walk
// and the checks for signals, watches, traps, injections, phase accounting
// and page protection. Run pays them once per straight-line run instead. A
// run starts with one validated decode and the checks; each later
// fall-through instruction is reached through the successor link of the one
// before it (cachedInst.succ). The link is trusted after its generation
// matches the chunk generation counter the loop holds a pointer to, and its
// target still holds its decode-cache slot. A write from any path bumps that
// counter, so a store into the next instruction — by this run or anything
// else — fails the compare. Links exist only between two instructions that
// start in the same 256-byte chunk, where the successor does not span into
// the next chunk; everything else (chunk crossings, a failed check, no link
// yet) takes the ordinary decode path, which then refreshes the link.
//
// A run ends at the first instruction that leaves EIP anywhere but its
// fall-through (taken branch, call, ret, hlt, fault delivery), at int (a
// system call can spawn threads or halt this one), at the budget, and before
// the trap range. While any per-step mode is active the loop falls back to
// Step for the whole step, so Step stays the one precise reference. A run
// retires exactly the instructions Step would, with the same ticks and
// counters: a trusted link is a decode Step would have served from the
// cache, and every other instruction goes through decode, so even
// Stats.DecodeMisses and the decode cache's contents match.

// quantum is how many steps Run gives a thread before moving to the next.
const quantum = 5000

// Run executes threads round-robin (quantum steps each) until all have
// halted or limit steps have been executed in total. A limit of 0 means no
// limit. It returns ErrLimit if the limit stopped execution.
func (m *Machine) Run(limit uint64) error {
	executed := uint64(0)
	for {
		live := 0
		for _, t := range m.Threads {
			if t.Halted {
				continue
			}
			live++
			// Hoist the limit check out of the per-instruction loop by
			// shrinking this quantum to whatever budget remains.
			q := uint64(quantum)
			if limit > 0 {
				if executed >= limit {
					return ErrLimit
				}
				if rem := limit - executed; rem < q {
					q = rem
				}
			}
			n, err := m.runQuantum(t, q)
			executed += n
			if err != nil {
				return err
			}
		}
		if live == 0 {
			return nil
		}
	}
}

// runQuantum executes up to q steps of t, stopping early if t halts, and
// returns the number of steps taken.
func (m *Machine) runQuantum(t *Thread, q uint64) (uint64, error) {
	done := uint64(0)
	if m.injections != nil || m.phaseOn || m.Mem.protCount != 0 {
		// A machine-wide per-step mode is on. Injections and phase
		// accounting never turn off and page protection seldom does, so
		// step the whole quantum without asking runnable each time.
		for ; done < q && !t.Halted; done++ {
			if err := m.Step(t); err != nil {
				return done, err
			}
		}
		return done, nil
	}
	for done < q && !t.Halted {
		if m.runnable(t) {
			n, err := m.run(t, q-done)
			done += n
			if err != nil {
				return done, err
			}
			continue
		}
		if err := m.Step(t); err != nil {
			return done, err
		}
		done++
	}
	return done, nil
}

// runnable reports whether t's next step is a plain instruction with none
// of Step's per-step modes active, so it may start a straight-line run.
func (m *Machine) runnable(t *Thread) bool {
	return len(t.pendingSignals) == 0 && t.watchLeft == 0 && t.CPU.EIP < TrapBase &&
		m.injections == nil && !m.phaseOn && m.Mem.protCount == 0
}

// run executes one straight-line run of t from its EIP, at most budget
// (>= 1) steps, and returns the number of steps taken. The caller has
// checked runnable(t); nothing a run executes can change that answer
// before the run ends.
func (m *Machine) run(t *Thread, budget uint64) (uint64, error) {
	pc := t.CPU.EIP
	ci, err := m.decode(pc)
	if err != nil {
		return 1, m.raiseFault(t, &Fault{Kind: FaultUD})
	}
	gen := m.Mem.subGenRef(pc) // generation counter of pc's chunk
	overhead := m.PerInstrOverhead
	for n := uint64(1); ; n++ {
		m.Stats.Instructions++
		t.Instret++
		m.Ticks += ci.cost + overhead
		if err := ci.fn(m, t, ci); err != nil {
			if f, ok := err.(*Fault); ok {
				return n, m.raiseFault(t, f)
			}
			return n, err
		}
		next := ci.next
		if n == budget || t.CPU.EIP != next {
			return n, nil
		}
		s := ci.succ
		if s == nil || s.gen != *gen || m.icache[next&icacheMask].ci != s {
			// A stop instruction is never linked, so this is the only
			// place its run needs to end.
			if ci.stop || next >= TrapBase {
				return n, nil
			}
			if s, err = m.decode(next); err != nil {
				return n + 1, m.raiseFault(t, &Fault{Kind: FaultUD})
			}
			if next>>chunkShift == pc>>chunkShift && !s.twoP {
				ci.succ = s
			}
			gen = m.Mem.subGenRef(next)
		}
		ci, pc = s, next
	}
}
