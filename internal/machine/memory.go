// Package machine implements the simulated IA-32 subset machine that stands
// in for the paper's real Pentium hardware: a flat 32-bit address space, the
// architectural register and eflags state, an interpreter for fully decoded
// instructions, pluggable Pentium 3 / Pentium 4 cost profiles, and branch
// predictor models (bimodal conditional predictor, return-address stack,
// last-target indirect predictor).
//
// Execution time is accounted in ticks (quarter cycles), so that sub-cycle
// cost differences — such as inc versus add 1 on different
// microarchitectures — can be expressed with integer arithmetic. All of the
// overheads the paper analyses (context switches, hashtable lookups,
// indirect-branch mispredictions, taken-branch layout penalties) arise from
// instructions this machine actually executes; see DESIGN.md for the short
// list of modeled constants.
package machine

import "fmt"

// Addr is a 32-bit simulated machine address.
type Addr = uint32

const (
	pageShift = 16
	pageSize  = 1 << pageShift
	pageCount = 1 << (32 - pageShift)

	// chunkShift is the granularity of the fine-grained write generations
	// (see SubGen): 256-byte chunks. The decoded-instruction cache
	// validates against chunks rather than whole pages so that appending
	// one fragment to the simulated code cache does not invalidate the
	// decodes of every other fragment sharing its 64 KiB page.
	chunkShift = 8
	chunkCount = pageSize >> chunkShift
)

// PageSize is the granularity of page-level write-generation tracking (see
// Gen); it is the unit at which embedders can detect code modification.
const PageSize Addr = pageSize

type page struct {
	bytes [pageSize]byte
	// gen counts writes to the page; embedders (fragment staleness checks
	// in the runtime) use it to detect self-modifying code.
	gen uint32
	// sub counts writes per 256-byte chunk; the decoded-instruction cache
	// uses it for precise invalidation (fragment replacement writes into
	// the simulated code cache). Every write bumps both gen and the
	// touched sub entries, so sub is strictly finer than gen.
	sub [chunkCount]uint32
	// prot is the page's access-restriction bits (ProtNoRead/ProtNoWrite).
	// The zero value means fully accessible, so untouched pages stay
	// permissive and the permission check stays off the fast path of runs
	// that never call Protect.
	prot uint8
}

// Page permission restriction bits for Protect. They are restrictions, not
// grants: a zero value (the default for every page) allows everything.
const (
	ProtNoRead  uint8 = 1 << iota // data reads fault with #PF
	ProtNoWrite                   // writes fault with #PF
)

// Memory is a sparse paged 32-bit address space. Pages are allocated on
// first touch; reads of untouched memory return zero after allocating.
// Pages are fully accessible unless restricted with Protect, in which case a
// violating access panics with a *Fault (#PF) that the machine's guarded
// step converts into a precise synchronous fault.
type Memory struct {
	pages [pageCount]*page

	// protCount is the number of pages with nonzero prot; access paths
	// check permissions only when it is nonzero.
	protCount int
}

// Protect sets the restriction bits for every page overlapping [lo, hi).
// Pass 0 to restore full access.
func (m *Memory) Protect(lo, hi Addr, prot uint8) {
	if hi <= lo {
		return
	}
	for pi := lo >> pageShift; pi <= (hi-1)>>pageShift; pi++ {
		p := m.pages[pi]
		if p == nil {
			if prot == 0 {
				continue
			}
			p = &page{}
			m.pages[pi] = p
		}
		if (p.prot == 0) != (prot == 0) {
			if prot == 0 {
				m.protCount--
			} else {
				m.protCount++
			}
		}
		p.prot = prot
		if pi == 0xFFFF {
			break // pi+1 would wrap
		}
	}
}

// protOK reports whether an access to a is permitted (write or read).
func (m *Memory) protOK(a Addr, write bool) bool {
	p := m.pages[a>>pageShift]
	if p == nil || p.prot == 0 {
		return true
	}
	if write {
		return p.prot&ProtNoWrite == 0
	}
	return p.prot&ProtNoRead == 0
}

// protCheck panics with a #PF *Fault if the access to a is not permitted.
// Only called when protCount != 0.
func (m *Memory) protCheck(a Addr, write bool) {
	if !m.protOK(a, write) {
		panic(&Fault{Kind: FaultPage, Addr: a, Write: write})
	}
}

// NewMemory returns an empty address space.
func NewMemory() *Memory { return &Memory{} }

func (m *Memory) pageFor(a Addr) *page {
	p := m.pages[a>>pageShift]
	if p == nil {
		p = &page{}
		m.pages[a>>pageShift] = p
	}
	return p
}

// Read8 reads one byte.
func (m *Memory) Read8(a Addr) uint8 {
	if m.protCount != 0 {
		m.protCheck(a, false)
	}
	return m.pageFor(a).bytes[a&(pageSize-1)]
}

// Read16 reads a little-endian 16-bit value.
func (m *Memory) Read16(a Addr) uint16 {
	if a&(pageSize-1) <= pageSize-2 {
		if m.protCount != 0 {
			m.protCheck(a, false)
		}
		p := m.pageFor(a)
		o := a & (pageSize - 1)
		return uint16(p.bytes[o]) | uint16(p.bytes[o+1])<<8
	}
	return uint16(m.Read8(a)) | uint16(m.Read8(a+1))<<8
}

// Read32 reads a little-endian 32-bit value.
func (m *Memory) Read32(a Addr) uint32 {
	if a&(pageSize-1) <= pageSize-4 {
		if m.protCount != 0 {
			m.protCheck(a, false)
		}
		p := m.pageFor(a)
		o := a & (pageSize - 1)
		return uint32(p.bytes[o]) | uint32(p.bytes[o+1])<<8 |
			uint32(p.bytes[o+2])<<16 | uint32(p.bytes[o+3])<<24
	}
	return uint32(m.Read16(a)) | uint32(m.Read16(a+2))<<16
}

// Write8 writes one byte.
func (m *Memory) Write8(a Addr, v uint8) {
	if m.protCount != 0 {
		m.protCheck(a, true)
	}
	p := m.pageFor(a)
	o := a & (pageSize - 1)
	p.bytes[o] = v
	p.gen++
	p.sub[o>>chunkShift]++
}

// Write16 writes a little-endian 16-bit value. The in-page fast path bumps
// the page generation once (not once per byte), halving the decode-cache
// invalidation pressure of 16-bit stores.
func (m *Memory) Write16(a Addr, v uint16) {
	if a&(pageSize-1) <= pageSize-2 {
		if m.protCount != 0 {
			m.protCheck(a, true)
		}
		p := m.pageFor(a)
		o := a & (pageSize - 1)
		p.bytes[o] = uint8(v)
		p.bytes[o+1] = uint8(v >> 8)
		p.gen++
		p.sub[o>>chunkShift]++
		if (o+1)>>chunkShift != o>>chunkShift {
			p.sub[(o+1)>>chunkShift]++
		}
		return
	}
	m.Write8(a, uint8(v))
	m.Write8(a+1, uint8(v>>8))
}

// Write32 writes a little-endian 32-bit value.
func (m *Memory) Write32(a Addr, v uint32) {
	if a&(pageSize-1) <= pageSize-4 {
		if m.protCount != 0 {
			m.protCheck(a, true)
		}
		p := m.pageFor(a)
		o := a & (pageSize - 1)
		p.bytes[o] = byte(v)
		p.bytes[o+1] = byte(v >> 8)
		p.bytes[o+2] = byte(v >> 16)
		p.bytes[o+3] = byte(v >> 24)
		p.gen++
		p.sub[o>>chunkShift]++
		if (o+3)>>chunkShift != o>>chunkShift {
			p.sub[(o+3)>>chunkShift]++
		}
		return
	}
	m.Write16(a, uint16(v))
	m.Write16(a+2, uint16(v>>16))
}

// WriteBytes copies b into memory starting at a.
func (m *Memory) WriteBytes(a Addr, b []byte) {
	for len(b) > 0 {
		if m.protCount != 0 {
			m.protCheck(a, true)
		}
		p := m.pageFor(a)
		o := a & (pageSize - 1)
		n := copy(p.bytes[o:], b)
		p.gen++
		for c := o >> chunkShift; c <= (o+Addr(n)-1)>>chunkShift; c++ {
			p.sub[c]++
		}
		b = b[n:]
		a += Addr(n)
	}
}

// ReadBytes copies n bytes starting at a into a fresh slice.
func (m *Memory) ReadBytes(a Addr, n int) []byte {
	out := make([]byte, n)
	for i := 0; i < n; {
		if m.protCount != 0 {
			m.protCheck(a+Addr(i), false)
		}
		p := m.pageFor(a + Addr(i))
		o := (a + Addr(i)) & (pageSize - 1)
		c := copy(out[i:], p.bytes[o:])
		i += c
	}
	return out
}

// Fetch fills buf with bytes starting at a (for instruction decode) and
// returns the slice. It avoids allocation for the common in-page case.
func (m *Memory) Fetch(a Addr, buf []byte) []byte {
	o := a & (pageSize - 1)
	p := m.pageFor(a)
	if int(o)+len(buf) <= pageSize {
		return p.bytes[o : int(o)+len(buf)]
	}
	for i := range buf {
		buf[i] = m.Read8(a + Addr(i))
	}
	return buf
}

// Gen returns the write-generation of the page containing a.
func (m *Memory) Gen(a Addr) uint32 {
	if p := m.pages[a>>pageShift]; p != nil {
		return p.gen
	}
	return 0
}

// SubGen returns the write-generation of the 256-byte chunk containing a.
// It is the fine-grained companion of Gen: every write bumps the chunk
// generations it touches, so a stable SubGen over an instruction's bytes
// proves those bytes are unmodified. The decode cache validates against
// SubGen to survive unrelated writes elsewhere on the same page.
func (m *Memory) SubGen(a Addr) uint32 {
	if p := m.pages[a>>pageShift]; p != nil {
		return p.sub[a&(pageSize-1)>>chunkShift]
	}
	return 0
}

// subGenRef returns the counter SubGen(a) reads, allocating the page. Pages
// are never freed, so a holder sees every later write to the chunk.
func (m *Memory) subGenRef(a Addr) *uint32 {
	return &m.pageFor(a).sub[a&(pageSize-1)>>chunkShift]
}

// Digest returns an FNV-1a checksum of the address range [lo, hi), covering
// every allocated page that overlaps it (untouched pages read as zero and
// are skipped, along with allocated pages whose overlap is all zero — so the
// digest is insensitive to whether a zero region was ever paged in). The
// differential tests use it to compare final application memory below the
// runtime-reserved region across cache configurations.
func (m *Memory) Digest(lo, hi Addr) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for pi := lo >> pageShift; pi <= (hi-1)>>pageShift; pi++ {
		p := m.pages[pi]
		if p == nil {
			continue
		}
		start := Addr(0)
		if base := pi << pageShift; base < lo {
			start = lo - base
		}
		end := Addr(pageSize)
		if base := pi << pageShift; base+pageSize > hi {
			end = hi - base
		}
		slice := p.bytes[start:end]
		allZero := true
		for _, b := range slice {
			if b != 0 {
				allZero = false
				break
			}
		}
		if allZero {
			continue
		}
		// Fold the page's address in so identical content at different
		// addresses digests differently.
		for _, b := range [4]byte{byte(pi), byte(pi >> 8), byte(pi >> 16), byte(start)} {
			h = (h ^ uint64(b)) * prime64
		}
		for _, b := range slice {
			h = (h ^ uint64(b)) * prime64
		}
		if pi == 0xFFFF {
			break // pi+1 would wrap
		}
	}
	return h
}

// String summarizes allocated pages (debugging aid).
func (m *Memory) String() string {
	n := 0
	for _, p := range m.pages {
		if p != nil {
			n++
		}
	}
	return fmt.Sprintf("Memory{%d pages, %d KiB}", n, n*pageSize/1024)
}
