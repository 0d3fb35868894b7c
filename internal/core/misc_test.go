package core_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ia32"
	"repro/internal/image"
	"repro/internal/machine"
)

func TestContextAccessors(t *testing.T) {
	img := image.MustAssemble("t", "main:\n nop\n hlt\n")
	m := machine.New(machine.PentiumIV())
	r := core.New(m, img, core.Default(), nil)
	ctx := r.ContextOf(m.Threads[0])
	if ctx.Thread() != m.Threads[0] || ctx.RIO() != r {
		t.Error("back-references wrong")
	}
	if ctx.TLSAddr() == 0 {
		t.Error("TLS address")
	}
	op := ctx.IndirectSpillOp()
	if op.Kind != ia32.OperandMem || op.Base != ia32.RegNone {
		t.Errorf("spill op = %v", op)
	}

	// Transparent allocations: distinct, aligned, and disjoint between
	// global and thread-local arenas.
	g1, g2 := r.AllocGlobal(12), r.AllocGlobal(4)
	if g2 <= g1 || g2-g1 < 12 || g1%8 != 0 {
		t.Errorf("global alloc: %#x %#x", g1, g2)
	}
	l1, l2 := ctx.AllocLocal(8), ctx.AllocLocal(24)
	if l2 <= l1 || l1 == g1 {
		t.Errorf("local alloc: %#x %#x", l1, l2)
	}
	// Writes through allocations must not alias application memory.
	m.Mem.Write32(g1, 0xAABBCCDD)
	if m.Mem.Read8(img.Entry) == 0xDD {
		t.Error("global arena aliases code")
	}
}

func TestBlockEndInfo(t *testing.T) {
	img := image.MustAssemble("t", `
main:
    nop
    call f
after:
    jmp main
f:  mov eax, [table]
    jmp eax
g:  ret
big:
    .space 4096
table: .word g
`)
	m := machine.New(machine.PentiumIV())
	r := core.New(m, img, core.Default(), nil)

	op, target, ok := r.BlockEndInfo(img.Entry)
	if !ok || op != ia32.OpCall || target != img.Symbol("f") {
		t.Errorf("main: %v %#x %v", op, target, ok)
	}
	op, _, ok = r.BlockEndInfo(img.Symbol("after"))
	if !ok || op != ia32.OpJmp {
		t.Errorf("after: %v %v", op, ok)
	}
	op, _, ok = r.BlockEndInfo(img.Symbol("f"))
	if !ok || op != ia32.OpJmpInd {
		t.Errorf("f: %v %v", op, ok)
	}
	op, _, ok = r.BlockEndInfo(img.Symbol("g"))
	if !ok || op != ia32.OpRet {
		t.Errorf("g: %v %v", op, ok)
	}
	// A run of zero bytes has decodable junk but eventually exceeds the
	// block cap without a CTI.
	if _, _, ok := r.BlockEndInfo(img.Symbol("big")); ok {
		t.Error("cap-exceeded block should report !ok")
	}
}

func TestFragmentStrings(t *testing.T) {
	if core.KindBasicBlock.String() != "bb" || core.KindTrace.String() != "trace" {
		t.Error("kind strings")
	}
}

func TestOptionsDefaults(t *testing.T) {
	opts := core.Default()
	if !opts.LinkDirect || !opts.LinkIndirect || !opts.EnableTraces {
		t.Error("default should enable everything")
	}
	if opts.TraceThreshold != 50 {
		t.Errorf("threshold = %d", opts.TraceThreshold)
	}
	ladder := core.TableOneLadder()
	if len(ladder) != 5 {
		t.Fatalf("ladder length %d", len(ladder))
	}
	if ladder[0].Mode != core.ModeEmulate {
		t.Error("first rung must be emulation")
	}
	if ladder[1].LinkDirect || ladder[1].LinkIndirect || ladder[1].EnableTraces {
		t.Error("second rung must be bare caching")
	}
	if !ladder[4].EnableTraces {
		t.Error("last rung must have traces")
	}
}

func TestZeroOptionDefaultsFilled(t *testing.T) {
	img := image.MustAssemble("t", "main:\n hlt\n")
	m := machine.New(machine.PentiumIV())
	r := core.New(m, img, core.Options{Cost: core.DefaultCost()}, nil)
	if r.Opts.TraceThreshold <= 0 || r.Opts.MaxTraceBlocks <= 0 || r.Opts.IBLTableBits == 0 {
		t.Errorf("defaults not filled: %+v", r.Opts)
	}
}

func TestMachineMiscAccessors(t *testing.T) {
	m := machine.New(machine.PentiumIV())
	if m.Threads[0].Machine() != m {
		t.Error("thread back-reference")
	}
	before := m.Ticks
	m.Charge(100)
	if m.Ticks != before+100 {
		t.Error("Charge")
	}
	if s := m.Mem.String(); !strings.Contains(s, "pages") {
		t.Errorf("memory string %q", s)
	}
	if machine.Ticks(8).Cycles() != 2 {
		t.Error("tick conversion")
	}
}
