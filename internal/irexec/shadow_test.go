package irexec

import (
	"math/rand"
	"testing"
)

// shadowModel is the map-based reference the paged Shadow must match.
type shadowModel map[uint32]int

func (m shadowModel) clear(addr, n uint32) {
	for i := uint32(0); i < n; i++ {
		delete(m, addr+i)
	}
}

// checkShadow compares s against the model at every address the model
// knows plus a window around each probe address.
func checkShadow(t *testing.T, s *Shadow[int], m shadowModel, probes []uint32) {
	t.Helper()
	for a, want := range m {
		if got := s.Get(a); got != want {
			t.Fatalf("Get(%#x) = %d, want %d", a, got, want)
		}
	}
	for _, p := range probes {
		for d := uint32(0); d < 16; d++ {
			a := p - 8 + d
			if got, want := s.Get(a), m[a]; got != want {
				t.Fatalf("Get(%#x) = %d, want %d", a, got, want)
			}
		}
	}
}

// Clears that straddle a page boundary reach into both pages, and clears
// that start just below address 0 wrap around the top of the address
// space, exactly like the per-byte loop they replace.
func TestShadowStraddleAndWrap(t *testing.T) {
	var s Shadow[int]
	m := shadowModel{}
	set := func(a uint32, v int) { s.Set(a, v); m[a] = v }
	clr := func(a, n uint32) { s.Clear(a, n); m.clear(a, n) }
	for _, a := range []uint32{0x2ff8, 0x2ffc, 0x3000, 0x3004, 0xfffffffc, 0xfffffffe, 0, 2, 4} {
		set(a, int(a%1000)+1)
	}
	// A 4-byte store at 0x2ffe (addr&4095 = 4094) invalidates
	// 0x2ffb..0x3001: entries on both sides of the page boundary.
	clr(0x2ffe-3, 4+3)
	if s.Get(0x2ffc) != 0 || s.Get(0x3000) != 0 {
		t.Fatal("straddling clear missed an entry")
	}
	if s.Get(0x2ff8) == 0 || s.Get(0x3004) == 0 {
		t.Fatal("straddling clear removed an entry outside its range")
	}
	// A 1-byte store at address 1 invalidates 0xfffffffe..0x1.
	one := uint32(1)
	clr(one-3, 1+3)
	if s.Get(0xfffffffe) != 0 || s.Get(0) != 0 {
		t.Fatal("wrapping clear missed an entry")
	}
	if s.Get(0xfffffffc) == 0 || s.Get(2) == 0 {
		t.Fatal("wrapping clear removed an entry outside its range")
	}
	checkShadow(t, &s, m, []uint32{0x3000, 0})
}

// A randomized differential against the map model, with addresses drawn
// around page boundaries and the top and bottom of the address space, and
// clear lengths up to several pages.
func TestShadowMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	anchors := []uint32{0, 0x1000, 0x2000, 0x7fff000, 0xfffff000, 0xfffffffc}
	addr := func() uint32 {
		return anchors[rng.Intn(len(anchors))] + uint32(rng.Intn(64)) - 32
	}
	var s Shadow[int]
	m := shadowModel{}
	for i := 0; i < 20000; i++ {
		switch a := addr(); rng.Intn(4) {
		case 0, 1:
			v := rng.Intn(100) + 1
			s.Set(a, v)
			m[a] = v
		case 2:
			n := uint32(rng.Intn(8) + 1)
			s.Clear(a, n)
			m.clear(a, n)
		case 3:
			if got, want := s.Get(a), m[a]; got != want {
				t.Fatalf("step %d: Get(%#x) = %d, want %d", i, a, got, want)
			}
		}
	}
	s.Clear(0x7fff000-0x2000, 0x5000)
	m.clear(0x7fff000-0x2000, 0x5000)
	checkShadow(t, &s, m, anchors)
}

// Clearing addresses whose pages were never written materializes nothing.
func TestShadowClearAbsentPages(t *testing.T) {
	var s Shadow[int]
	s.Clear(0x10000, 3*shadowPageSize)
	s.Clear(0xfffffffd, 7)
	if len(s.pages) != 0 {
		t.Fatalf("clears materialized %d pages", len(s.pages))
	}
	s.Set(0x10000+shadowPageSize-1, 1)
	if len(s.pages) != 1 {
		t.Fatalf("one Set materialized %d pages", len(s.pages))
	}
}
