package irexec

// Shadow page geometry: 4096 entries per page, one entry per byte address,
// and a direct-mapped memo of 16 page lookups.
const (
	shadowPageBits = 12
	shadowPageSize = 1 << shadowPageBits
	shadowPageMask = shadowPageSize - 1
	shadowMemo     = 16
)

// Shadow is a tracer-side shadow of the 32-bit address space: one entry of
// type E per byte address, with the zero E meaning "absent". Refinement
// tracers use it for per-address metadata on their per-instruction paths
// (regsave's saved-symbol shadow, vartrack's pointer address map), where a
// Go map keyed by address costs a hash and a delete per byte touched.
//
// Pages of 4096 entries are materialized on the first Set into them. A
// memo of page lookups, direct-mapped by page number, remembers pages
// looked up — including pages found missing — so accesses that move
// between a few pages (the stack's and the data section's), and clears
// of addresses that were never written, skip the map lookup. The zero
// Shadow is empty and ready to use; it is not safe for concurrent use.
type Shadow[E any] struct {
	pages map[uint32]*[shadowPageSize]E
	memo  [shadowMemo]shadowLookup[E]
}

// shadowLookup is one memoized page lookup: the page number plus one (0
// means nothing is memoized) and that page, nil when it does not exist.
type shadowLookup[E any] struct {
	pn   uint32
	page *[shadowPageSize]E
}

// lookup returns the page holding page number pn, or nil when no entry of
// that page was ever set.
func (s *Shadow[E]) lookup(pn uint32) *[shadowPageSize]E {
	m := &s.memo[pn%shadowMemo]
	if m.pn == pn+1 {
		return m.page
	}
	p := s.pages[pn]
	m.pn, m.page = pn+1, p
	return p
}

// Get returns the entry at addr (the zero E when absent).
func (s *Shadow[E]) Get(addr uint32) E {
	if p := s.lookup(addr >> shadowPageBits); p != nil {
		return p[addr&shadowPageMask]
	}
	var zero E
	return zero
}

// Set stores e at addr, materializing its page when needed.
func (s *Shadow[E]) Set(addr uint32, e E) {
	pn := addr >> shadowPageBits
	p := s.lookup(pn)
	if p == nil {
		if s.pages == nil {
			s.pages = make(map[uint32]*[shadowPageSize]E)
		}
		p = new([shadowPageSize]E)
		s.pages[pn] = p
		s.memo[pn%shadowMemo].page = p
	}
	p[addr&shadowPageMask] = e
}

// Clear removes the entries of the n addresses starting at addr. The range
// wraps around the top of the address space like the address arithmetic
// it shadows; pages that were never written cost one memo check or lookup
// each.
func (s *Shadow[E]) Clear(addr, n uint32) {
	for n > 0 {
		off := addr & shadowPageMask
		k := uint32(shadowPageSize) - off
		if k > n {
			k = n
		}
		if p := s.lookup(addr >> shadowPageBits); p != nil {
			clear(p[off : off+k])
		}
		addr += k
		n -= k
	}
}
