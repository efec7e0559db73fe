package irexec

// Shadow page geometry: 4096 entries per page, one entry per byte address.
const (
	shadowPageBits = 12
	shadowPageSize = 1 << shadowPageBits
	shadowPageMask = shadowPageSize - 1
)

// Shadow is a tracer-side shadow of the 32-bit address space: one entry of
// type E per byte address, with the zero E meaning "absent". Refinement
// tracers use it for per-address metadata on their per-instruction paths
// (regsave's saved-symbol shadow, vartrack's pointer address map), where a
// Go map keyed by address costs a hash and a delete per byte touched.
//
// Pages of 4096 entries are materialized on the first Set into them. A
// one-entry memo remembers the last page looked up — including a page
// found missing — so accesses that stay within one page, and clears of
// addresses that were never written, skip the map lookup. The zero Shadow
// is empty and ready to use; it is not safe for concurrent use.
type Shadow[E any] struct {
	pages map[uint32]*[shadowPageSize]E
	// memo is the memoized page number plus one (0 means nothing is
	// memoized); memoPage is that page, nil when it does not exist.
	memo     uint32
	memoPage *[shadowPageSize]E
}

// lookup returns the page holding page number pn, or nil when no entry of
// that page was ever set.
func (s *Shadow[E]) lookup(pn uint32) *[shadowPageSize]E {
	if pn+1 == s.memo {
		return s.memoPage
	}
	p := s.pages[pn]
	s.memo, s.memoPage = pn+1, p
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
		s.memoPage = p
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
