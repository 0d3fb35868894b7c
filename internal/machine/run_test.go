package machine_test

import (
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/image"
	"repro/internal/machine"
)

// stepRun is Run's round-robin schedule (5000-step quanta, one shared
// limit) driven one Machine.Step at a time. Step is the precise
// one-instruction path, so this is the reference Run's straight-line fast
// path must reproduce exactly.
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

// alignedImage assembles src after replacing each line "PAD <label> <off>"
// with the nops that put label at byte offset off of its 256-byte chunk
// (the decode cache's generation granularity). Pads resolve in order; a pad
// only moves the code after it.
func alignedImage(t *testing.T, src string) *image.Image {
	t.Helper()
	lines := strings.Split(src, "\n")
	type pad struct {
		line  int
		label string
		off   uint32
	}
	var pads []pad
	for i, l := range lines {
		f := strings.Fields(l)
		if len(f) == 3 && f[0] == "PAD" {
			off, err := strconv.ParseUint(f[2], 0, 8)
			if err != nil {
				t.Fatalf("bad PAD line %q: %v", l, err)
			}
			pads = append(pads, pad{i, f[1], uint32(off)})
			lines[i] = ""
		}
	}
	assemble := func() *image.Image {
		img, err := image.Assemble("aligned", strings.Join(lines, "\n"))
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	for _, p := range pads {
		n := (p.off - assemble().Symbol(p.label)) & 0xff
		lines[p.line] = strings.Repeat("    nop\n", int(n))
	}
	img := assemble()
	for _, p := range pads {
		if got := img.Symbol(p.label) & 0xff; got != p.off {
			t.Fatalf("label %s at chunk offset %#x, want %#x", p.label, got, p.off)
		}
	}
	return img
}

// runBoth boots img on two machines, applies setup to each, runs one with
// Run and the other with stepRun, and fails unless every observable of the
// two runs, every counter included, is identical. It returns the Run
// machine and its error.
func runBoth(t *testing.T, img *image.Image, limit uint64, setup func(*machine.Machine, *image.Image)) (*machine.Machine, error) {
	t.Helper()
	fast, ref := machine.New(machine.PentiumIV()), machine.New(machine.PentiumIV())
	for _, m := range []*machine.Machine{fast, ref} {
		img.Boot(m)
		if setup != nil {
			setup(m, img)
		}
	}
	err := fast.Run(limit)
	refErr := stepRun(ref, limit)
	if fmt.Sprint(err) != fmt.Sprint(refErr) {
		t.Errorf("Run error %v, stepwise reference %v", err, refErr)
	}
	if d := diffMachines(fast, ref); d != "" {
		t.Errorf("Run diverged from the stepwise reference: %s", d)
	}
	return fast, err
}

// diffMachines names the first observable that differs between a and b, or
// returns "".
func diffMachines(a, b *machine.Machine) string {
	if len(a.Threads) != len(b.Threads) {
		return fmt.Sprintf("threads %d vs %d", len(a.Threads), len(b.Threads))
	}
	for i, ta := range a.Threads {
		tb := b.Threads[i]
		if ta.CPU != tb.CPU {
			return fmt.Sprintf("thread %d CPU %+v vs %+v", i, ta.CPU, tb.CPU)
		}
		if ta.Instret != tb.Instret || ta.Halted != tb.Halted || ta.ExitCode != tb.ExitCode {
			return fmt.Sprintf("thread %d instret/halted/exit %d/%v/%d vs %d/%v/%d",
				i, ta.Instret, ta.Halted, ta.ExitCode, tb.Instret, tb.Halted, tb.ExitCode)
		}
		if !reflect.DeepEqual(ta.FaultRecord, tb.FaultRecord) {
			return fmt.Sprintf("thread %d fault record %+v vs %+v", i, ta.FaultRecord, tb.FaultRecord)
		}
	}
	if a.Ticks != b.Ticks {
		return fmt.Sprintf("ticks %d vs %d", a.Ticks, b.Ticks)
	}
	if a.Stats != b.Stats {
		return fmt.Sprintf("stats %+v vs %+v", a.Stats, b.Stats)
	}
	if string(a.Output) != string(b.Output) {
		return fmt.Sprintf("output %q vs %q", a.Output, b.Output)
	}
	if !reflect.DeepEqual(a.SyscallTrace, b.SyscallTrace) {
		return "syscall traces differ"
	}
	if !reflect.DeepEqual(a.FaultTrace, b.FaultTrace) {
		return fmt.Sprintf("fault traces %+v vs %+v", a.FaultTrace, b.FaultTrace)
	}
	if a.Mem.Digest(0, 0xFFFFFFFF) != b.Mem.Digest(0, 0xFFFFFFFF) {
		return "memory digests differ"
	}
	return ""
}

// printEDXExit prints edx in decimal and exits.
const printEDXExit = `
    mov ebx, edx
    mov eax, 3
    int 0x80
    mov eax, 1
    mov ebx, 0
    int 0x80
`

// countdownLoop sums a function of a 5000-step countdown into edx; its
// straight-line body is what watches and signals land in.
const countdownLoop = `
main:
    mov ecx, 5000
    xor edx, edx
loop:
    mov eax, ecx
    and eax, 7
    add edx, eax
    dec ecx
    jnz loop
` + printEDXExit + `
sig:
    pushfd
    add edx, 1000000
    popfd
    ret
`

// spawnMidLoop stores to and sums from [esi] for 3000 iterations and, at
// ecx = 1000, spawns a thread that exits at once: the spawn hook is how a
// case changes the machine mid-quantum. Its fault handler moves esi to
// another page and retries.
const spawnMidLoop = `
main:
    mov eax, 7
    mov ebx, handler
    int 0x80
    mov esi, 0x00300000
    mov ecx, 3000
    xor edx, edx
loop:
    mov [esi], ecx
    add edx, [esi]
    cmp ecx, 1000
    jnz next
    push ecx
    mov eax, 5
    mov ebx, quit
    mov ecx, 0x7FE00000
    int 0x80
    pop ecx
next:
    dec ecx
    jnz loop
` + printEDXExit + `
quit:
    mov eax, 1
    mov ebx, 0
    int 0x80
handler:
    mov esi, 0x00310000
    add esp, 8
    ret
`

func TestRunMatchesStepwise(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		limit uint64
		setup func(*machine.Machine, *image.Image)
		// want is the program's output when the run completes; empty
		// skips the check.
		want    string
		wantErr error
	}{
		// Only the iteration with ecx = 10 stores into the loop's chunk
		// (cmov picks the address), so the links the earlier iterations
		// made are in place when the store rewrites the next instruction.
		{name: "store into next instruction, same chunk", src: `
main:
    mov ecx, 20
    xor edx, edx
    mov esi, 0x8000
    mov ebp, patch
    inc ebp
    PAD loop 0x10
loop:
    mov edi, esi
    cmp ecx, 10
    cmove edi, ebp
    mov [edi], ecx
patch:
    mov eax, 0
    add edx, eax
    dec ecx
    jnz loop
` + printEDXExit, want: "100"},
		// The write before the loop gives the loop's first chunk the
		// generation the next chunk has when patch is first decoded, so a
		// link across the boundary would pass a check against the wrong
		// chunk's counter.
		{name: "store into following chunk", src: `
main:
    mov ecx, 20
    xor edx, edx
    mov edi, loop
    mov eax, 0x90909090
    PAD patch 0
    mov [edi-8], eax    ; rewrites four pad nops in place
loop:
    mov [patch+1], ecx
    nop
    nop
patch:
    mov eax, 0
    add edx, eax
    dec ecx
    jnz loop
` + printEDXExit, want: "210"},
		{name: "store straddling chunk boundary", src: `
main:
    mov ecx, 20
    xor edx, edx
    mov edi, edge
    PAD edge 0
loop:
    mov ebx, ecx
    shl ebx, 24
    or ebx, 0xB09090    ; nop, nop, then "mov al, imm8" with imm8 = cl
    mov [edi-2], ebx
    nop
    nop
edge:
    mov al, 0
    movzx eax, al
    add edx, eax
    dec ecx
    jnz loop
` + printEDXExit, want: "210", setup: func(m *machine.Machine, img *image.Image) {
			if op := m.Mem.Read8(img.Symbol("edge")); op != 0xB0 {
				panic(fmt.Sprintf("mov al, imm8 encoded as %#x, want 0xb0", op))
			}
		}},
		{name: "instructions spanning two chunks", src: `
main:
    mov ecx, 20
    xor edx, edx
    PAD patch 0xFD
loop:
    mov [patch+3], cl   ; rewrites only the part past the boundary
patch:
    mov eax, 0
    add edx, eax
    PAD span 0xFE
span:
    mov esi, 0x12345678
    dec ecx
    jnz loop
` + printEDXExit, want: "13762560"},
		{name: "fall-through into the trap range", src: `
main:
    mov eax, 0xEFFFFFFD
    jmp eax
done:
` + printEDXExit, want: "7", setup: func(m *machine.Machine, img *image.Image) {
			m.Mem.WriteBytes(0xEFFFFFFD, []byte{0x90, 0x90, 0x90}) // nops up to TrapBase
			m.AllocTrap(func(t *machine.Thread) (machine.TrapAction, error) {
				t.CPU.R[2] = 7 // edx
				t.CPU.EIP = img.Symbol("done")
				return machine.TrapContinue, nil
			})
		}},
		// far's instructions map to the decode-cache slots of the loop's
		// second to fourth instructions (addresses 128 KiB apart), so each
		// call evicts the targets of links the loop made: the decode
		// Step would make there misses, and so must Run.
		{name: "link target evicted by a conflicting decode", src: `
main:
    mov ecx, 50
    xor edx, edx
    jmp loop
.org 0x10000
loop:
    add edx, ecx
    add edx, 3
    add edx, 5
    call far
    dec ecx
    jnz loop
` + printEDXExit + `
.org 0x30002
far:
    add edx, 3
    add edx, 5
    ret
`, want: "2075"},
		{name: "two threads, quanta end mid-run", src: `
main:
    mov eax, 5
    mov ebx, worker
    mov ecx, 0x7FE00000
    int 0x80
    mov ecx, 3000
    mov esi, 'a'
    call spin
    mov eax, 1
    mov ebx, 0
    int 0x80
worker:
    mov ecx, 2500
    mov esi, 'b'
    call spin
    mov eax, 1
    mov ebx, 0
    int 0x80
spin:
    add dword [shared], 3
    mov eax, [shared]
    xor eax, ecx
    add edx, eax
    inc edi
    test ecx, 511
    jnz next
    mov eax, 2
    mov ebx, esi
    int 0x80
next:
    dec ecx
    jnz spin
    ret
.org 0x8000
shared: .word 0
`},
		{name: "watch expires mid-run", src: countdownLoop, setup: func(m *machine.Machine, _ *image.Image) {
			fired := 0
			m.SetWatchHook(func(t *machine.Thread) {
				fired++
				t.CPU.R[2] += 1000 // edx
				if fired < 3 {
					t.ArmWatch(uint64(700 + 311*fired))
				}
			})
			m.Threads[0].ArmWatch(333)
		}},
		{name: "signals queued before and during the run", src: countdownLoop, setup: func(m *machine.Machine, img *image.Image) {
			m.QueueSignal(m.Threads[0], img.Symbol("sig"))
			m.SetWatchHook(func(t *machine.Thread) { m.QueueSignal(t, img.Symbol("sig")) })
			m.Threads[0].ArmWatch(2345)
		}},
		{name: "injected fault mid-run", src: spawnMidLoop, setup: func(m *machine.Machine, _ *image.Image) {
			m.SetSpawnHook(func(*machine.Thread) {
				t := m.Threads[0]
				m.InjectFaultAtInstret(t.ID, t.Instret+1234, machine.FaultSoftware, 0)
			})
		}},
		{name: "protected page faults mid-run", src: spawnMidLoop, want: "4501500", setup: func(m *machine.Machine, _ *image.Image) {
			m.SetSpawnHook(func(*machine.Thread) { m.Mem.Protect(0x00300000, 0x00301000, machine.ProtNoWrite) })
		}},
		{name: "div raises #DE mid-run", src: `
main:
    mov eax, 7
    mov ebx, handler
    int 0x80
    mov ecx, 40
    xor esi, esi
loop:
    mov ebx, ecx
    sub ebx, 5
    mov eax, 1000
    xor edx, edx
    div ebx
    add esi, eax
    dec ecx
    jnz loop
    mov edx, esi
` + printEDXExit + `
handler:
    mov ebx, 1
    add esp, 8
    ret
`, want: "5133"},
		{name: "undecodable bytes end a run", src: `
main:
    mov ecx, 3
    add edx, 5
    inc edx
    .byte 0xFF, 0xFF
`},
		{name: "limit ends mid-run", src: hotLoopSource, limit: 123457, wantErr: machine.ErrLimit},
		// The spawned thread enters the loop with esi = 0, so its stores
		// land on main's first (already executed) bytes, in the loop's own
		// chunk: every iteration invalidates the links it just followed.
		{name: "limit ends mid-run, two threads", src: strings.Replace(hotLoopSource, "main:", `
main:
    mov eax, 5
    mov ebx, outer
    mov ecx, 0x7FE00000
    int 0x80`, 1), limit: 77777, wantErr: machine.ErrLimit},
		{name: "per-instruction overhead", src: hotLoopSource, setup: func(m *machine.Machine, _ *image.Image) {
			m.PerInstrOverhead = 3
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			limit := tc.limit
			if limit == 0 {
				limit = 50_000_000
			}
			fast, err := runBoth(t, alignedImage(t, tc.src), limit, tc.setup)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("Run error %v, want %v", err, tc.wantErr)
			}
			if tc.want != "" && fast.OutputString() != tc.want {
				t.Errorf("output %q, want %q", fast.OutputString(), tc.want)
			}
			if machine.LinkCount(fast) == 0 {
				t.Error("no successor links: the straight-line fast path never ran")
			}
		})
	}
}
