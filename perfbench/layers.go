package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/ia32"
	"repro/internal/instr"
	"repro/internal/machine"
)

// layerAcc accumulates the traced passes' per-layer measurements.
type layerAcc struct {
	tr     *tracer
	hooks  map[string]*hookStats
	passes int

	nativeRuns   int
	nativeInstr  uint64
	nativeNS     int64
	nativeAllocB uint64

	coreRuns   int
	coreRunNS  int64
	extraNS    int64 // RIO.Run time minus the same program's native machine.Run time
	coreAllocB uint64
	checkNS    int64
}

func newLayerAcc() *layerAcc {
	return &layerAcc{tr: newTracer(), hooks: map[string]*hookStats{}}
}

// timeNative times a native machine.Run of p and checks it still matches
// the set-up reference.
func (a *layerAcc) timeNative(p *program) (int64, error) {
	runtime.GC() // as before every runtime run
	m := machine.New(machine.PentiumIV())
	p.img.Boot(m)
	sp := a.tr.begin("machine.Run")
	defer a.tr.end(sp)
	alloc0 := heapAllocs()
	t0 := time.Now()
	err := m.Run(runLimit)
	ns := int64(time.Since(t0))
	a.nativeAllocB += heapAllocs() - alloc0
	if err != nil {
		return 0, fmt.Errorf("native: %w", err)
	}
	if m.Ticks != p.ticks {
		return 0, fmt.Errorf("native ticks %d != set-up reference %d", m.Ticks, p.ticks)
	}
	a.nativeRuns++
	a.nativeInstr += m.Stats.Instructions
	a.nativeNS += ns
	return ns, nil
}

func (a *layerAcc) addRun(res *runResult, nativeNS int64) {
	a.coreRuns++
	a.coreRunNS += res.runNS
	a.extraNS += res.runNS - nativeNS
	a.coreAllocB += res.allocB
	a.checkNS += res.checkNS
}

// block is one basic block of a program's code, split the way the block
// builder splits it: a straight-line body and the control transfer ending
// it (nil when the block ends at a system call, hlt or the size cap).
type block struct {
	pc   uint32
	body []byte
	cti  []byte
}

// Block-size caps, as the runtime's block builder applies them.
const (
	maxBlockInstrs = 256
	maxBlockBytes  = 1536
)

// harvestBlocks sweeps the code section of each program (the one holding
// its entry point) linearly and splits it into basic blocks. Undecodable
// bytes end the current block and are skipped.
func harvestBlocks(progs []program) []block {
	var out []block
	for _, p := range progs {
		for _, s := range p.img.Sections {
			if p.img.Entry < s.Addr || p.img.Entry >= s.Addr+uint32(len(s.Bytes)) {
				continue
			}
			code := s.Bytes
			start, count := 0, 0
			for off := 0; off < len(code); {
				op, n, _, err := ia32.DecodeOpcode(code[off:])
				if err != nil {
					start, count, off = off+1, 0, off+1
					continue
				}
				count++
				end := off + n
				if op.IsCTI() {
					out = append(out, block{pc: s.Addr + uint32(start), body: code[start:off], cti: code[off:end]})
				} else if op == ia32.OpInt || op == ia32.OpHlt || count >= maxBlockInstrs || end-start >= maxBlockBytes {
					out = append(out, block{pc: s.Addr + uint32(start), body: code[start:end]})
				} else {
					off = end
					continue
				}
				start, count, off = end, 0, end
			}
		}
	}
	return out
}

// cachePC is where the microbenchmark encodes blocks: an address away from
// the application code, so direct branches are re-encoded as the code cache
// re-encodes them.
const cachePC = 0x6000_0000

// codecBlock decodes b to the given instr level and encodes it at cachePC,
// appending to buf. Level 1 is the block builder's copy path: the body stays
// one undecoded bundle and only the ending branch is decoded. Level 3 fully
// decodes every instruction (raw bytes still copied); Level 4 also marks
// every instruction modified, so each goes through the template encoder, as
// after a client rewrite.
func codecBlock(b block, level instr.Level, buf []byte) ([]byte, error) {
	l := instr.NewList()
	for off := 0; off < len(b.body); {
		_, n, _, err := ia32.DecodeOpcode(b.body[off:])
		if err != nil {
			return nil, err
		}
		off += n
	}
	if len(b.body) > 0 {
		l.Append(instr.FromRawBundle(b.body, b.pc))
	}
	if b.cti != nil {
		cti, err := instr.FromDecode(b.cti, b.pc+uint32(len(b.body)))
		if err != nil {
			return nil, err
		}
		l.Append(cti)
	}
	if level >= instr.Level3 {
		l.DecodeAll(instr.Level3)
	}
	if level >= instr.Level4 {
		l.Instrs(func(i *instr.Instr) bool {
			i.MarkModified()
			return true
		})
	}
	return l.EncodeTo(cachePC, buf)
}

// codecOK reports whether b decodes and re-encodes at every level without an
// error or a panic.
func codecOK(b block, levels []instr.Level) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	for _, lv := range levels {
		if _, err := codecBlock(b, lv, nil); err != nil {
			return false
		}
	}
	return true
}

// codecResult is the instr-layer measurement at one level.
type codecResult struct {
	usPerBlock    float64
	bytesPerBlock float64
}

// codecMinTime is how long each level's measurement loops over the blocks.
const codecMinTime = 150 * time.Millisecond

// measureCodec times decode→encode of every block at each level, sweeping
// the blocks until codecMinTime has passed. Blocks that fail to re-encode at
// any level are dropped first; their count is returned.
func measureCodec(blocks []block, tr *tracer) (map[instr.Level]codecResult, int) {
	levels := []instr.Level{instr.Level1, instr.Level3, instr.Level4}
	var buf []byte
	ok := blocks[:0:0]
	for _, b := range blocks {
		if codecOK(b, levels) {
			ok = append(ok, b)
		}
	}
	out := map[instr.Level]codecResult{}
	if len(ok) == 0 {
		return out, len(blocks)
	}
	for _, lv := range levels {
		sp := tr.begin(fmt.Sprintf("instr.%s", lv))
		var n, bytes int
		t0 := time.Now()
		for n == 0 || time.Since(t0) < codecMinTime {
			for _, b := range ok {
				buf, _ = codecBlock(b, lv, buf[:0])
				bytes += len(buf)
				n++
			}
		}
		ns := time.Since(t0)
		tr.end(sp)
		out[lv] = codecResult{
			usPerBlock:    ns.Seconds() * 1e6 / float64(n),
			bytesPerBlock: float64(bytes) / float64(n),
		}
	}
	return out, len(blocks) - len(ok)
}
