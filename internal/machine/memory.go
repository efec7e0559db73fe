package machine

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// pageBits selects 64 KiB pages for the sparse flat memory.
const pageBits = 16
const pageSize = 1 << pageBits

// Memory is a sparse, zero-initialized 32-bit address space. Pages are
// materialized on first access. Accesses to the first page (addresses below
// 0x1000, the classic null-pointer guard region) fault.
//
// Load and Store take a single-lookup fast path when the access stays within
// one page (the overwhelmingly common case); a one-entry page cache makes
// consecutive accesses to the same page skip even the map lookup. Accesses
// that straddle a page boundary fall back to a byte-at-a-time slow path.
type Memory struct {
	pages map[uint32]*[pageSize]byte
	// lastPN/lastPage cache the most recently touched page. lastPN starts
	// at noPage (an impossible page number — real ones fit in 16 bits), so
	// the hit test is a single comparison with no nil check; page 0 is
	// never cached (addresses 0x1000..0xFFFF are legal but rare, and
	// excluding the page keeps a cache hit from ever bypassing the null
	// guard).
	lastPN   uint32
	lastPage *[pageSize]byte
}

// noPage is the lastPN sentinel meaning "nothing cached": page numbers are
// addr>>pageBits, so 1<<pageBits can never match a real page.
const noPage = 1 << pageBits

// NewMemory returns an empty address space.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint32]*[pageSize]byte), lastPN: noPage}
}

// Fault is a memory access violation.
type Fault struct {
	Addr uint32 // the faulting address
	Why  string // what the access violated
}

func (f *Fault) Error() string {
	return fmt.Sprintf("machine: memory fault at 0x%x: %s", f.Addr, f.Why)
}

func (m *Memory) page(addr uint32) (*[pageSize]byte, error) {
	if addr < 0x1000 {
		return nil, &Fault{Addr: addr, Why: "null-page access"}
	}
	pn := addr >> pageBits
	if pn == m.lastPN {
		return m.lastPage, nil
	}
	p := m.pages[pn]
	if p == nil {
		p = new([pageSize]byte)
		m.pages[pn] = p
	}
	if pn != 0 {
		m.lastPN, m.lastPage = pn, p
	}
	return p, nil
}

// Load reads size bytes (1, 2 or 4) little-endian.
func (m *Memory) Load(addr uint32, size uint8) (uint32, error) {
	off := addr & (pageSize - 1)
	if off+uint32(size) <= pageSize {
		p, err := m.page(addr)
		if err != nil {
			return 0, err
		}
		switch size {
		case 4:
			return binary.LittleEndian.Uint32(p[off:]), nil
		case 2:
			return uint32(binary.LittleEndian.Uint16(p[off:])), nil
		default:
			return uint32(p[off]), nil
		}
	}
	return m.loadSlow(addr, size)
}

// load32Fast reads a 4-byte value when addr hits the cached page without
// crossing its end; ok is false when the caller must take the full Load
// path. A cached page is never page 0, so the null guard is implied by the
// hit, and lastPN==noPage until something is cached, so no nil check is
// needed. Small enough to inline into the dispatch loops.
func (m *Memory) load32Fast(addr uint32) (v uint32, ok bool) {
	off := addr & (pageSize - 1)
	if off <= pageSize-4 && addr>>pageBits == m.lastPN {
		return binary.LittleEndian.Uint32(m.lastPage[off:]), true
	}
	return 0, false
}

// store32Fast is the store-side twin of load32Fast.
func (m *Memory) store32Fast(addr uint32, v uint32) bool {
	off := addr & (pageSize - 1)
	if off <= pageSize-4 && addr>>pageBits == m.lastPN {
		binary.LittleEndian.PutUint32(m.lastPage[off:], v)
		return true
	}
	return false
}

// loadSlow assembles a load that straddles a page boundary byte by byte.
func (m *Memory) loadSlow(addr uint32, size uint8) (uint32, error) {
	var v uint32
	for i := uint8(0); i < size; i++ {
		a := addr + uint32(i)
		p, err := m.page(a)
		if err != nil {
			return 0, err
		}
		v |= uint32(p[a&(pageSize-1)]) << (8 * i)
	}
	return v, nil
}

// Store writes size bytes (1, 2 or 4) little-endian.
func (m *Memory) Store(addr uint32, v uint32, size uint8) error {
	off := addr & (pageSize - 1)
	if off+uint32(size) <= pageSize {
		p, err := m.page(addr)
		if err != nil {
			return err
		}
		switch size {
		case 4:
			binary.LittleEndian.PutUint32(p[off:], v)
		case 2:
			binary.LittleEndian.PutUint16(p[off:], uint16(v))
		default:
			p[off] = byte(v)
		}
		return nil
	}
	return m.storeSlow(addr, v, size)
}

// storeSlow scatters a store that straddles a page boundary byte by byte.
func (m *Memory) storeSlow(addr uint32, v uint32, size uint8) error {
	for i := uint8(0); i < size; i++ {
		a := addr + uint32(i)
		p, err := m.page(a)
		if err != nil {
			return err
		}
		p[a&(pageSize-1)] = byte(v >> (8 * i))
	}
	return nil
}

// WriteBytes copies b into memory at addr, one page-sized chunk at a time.
func (m *Memory) WriteBytes(addr uint32, b []byte) error {
	for len(b) > 0 {
		p, err := m.page(addr)
		if err != nil {
			return err
		}
		off := addr & (pageSize - 1)
		n := copy(p[off:], b)
		b = b[n:]
		addr += uint32(n)
	}
	return nil
}

// ReadBytes copies n bytes out of memory starting at addr, one page-sized
// chunk at a time.
func (m *Memory) ReadBytes(addr uint32, n int) ([]byte, error) {
	out := make([]byte, n)
	for dst := out; len(dst) > 0; {
		p, err := m.page(addr)
		if err != nil {
			return nil, err
		}
		off := addr & (pageSize - 1)
		c := copy(dst, p[off:])
		dst = dst[c:]
		addr += uint32(c)
	}
	return out, nil
}

// CString reads a NUL-terminated string starting at addr (bounded at 1 MiB
// to catch runaway reads). It scans page-wise rather than byte-wise.
func (m *Memory) CString(addr uint32) (string, error) {
	const limit = 1 << 20
	var out []byte
	for read := 0; read < limit; {
		p, err := m.page(addr)
		if err != nil {
			return "", err
		}
		off := addr & (pageSize - 1)
		chunk := p[off:]
		if i := bytes.IndexByte(chunk, 0); i >= 0 {
			out = append(out, chunk[:i]...)
			return string(out), nil
		}
		out = append(out, chunk...)
		read += len(chunk)
		addr += uint32(len(chunk))
	}
	return "", &Fault{Addr: addr, Why: "unterminated string"}
}

// zeroPage is the reference all-zero page Digest compares against.
var zeroPage [pageSize]byte

// Digest returns a canonical sha256 over the memory contents: every
// non-zero page, in ascending page order, hashed as (page number, bytes).
// Pages that were materialized by reads but never written hash like pages
// that were never touched, so two executions digest equal exactly when
// they leave the same bytes behind — the property the superblock
// differential tests check.
func (m *Memory) Digest() [sha256.Size]byte {
	pns := make([]uint32, 0, len(m.pages))
	for pn, p := range m.pages {
		if !bytes.Equal(p[:], zeroPage[:]) {
			pns = append(pns, pn)
		}
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	h := sha256.New()
	var num [4]byte
	for _, pn := range pns {
		binary.LittleEndian.PutUint32(num[:], pn)
		h.Write(num[:])
		h.Write(m.pages[pn][:])
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}
