package analysis_test

import (
	"testing"

	"wytiwyg/internal/vsa"
)

// Soundness of the lint's interval arithmetic at the 32-bit wrap
// boundaries. The stack-access check reads offsets from VSA's strided
// intervals (vsa.SI), whose window is the 32-bit values under both
// interpretations, [−2^31, 2^32). The contract of every operation is
// containment: for concrete operands in the inputs, the 32-bit word the
// runtime computes must lie in the result. Results that leave the window
// wrap to a congruence class rather than keep a bound, which is what
// these tests pin: a wrapped endpoint kept as a bound would let the
// check prove an access in its slot that is not.

// boundaryGrid is the endpoint set: the edges of the window and of its
// signed half, and small values.
var boundaryGrid = []int64{
	-(1 << 31), -(1 << 31) + 1, -(1 << 20), -3, -1, 0, 1, 3, 1 << 20,
	(1 << 31) - 1, 1 << 31, (1 << 32) - 1,
}

// word is the 32-bit value of x in the window's unsigned reading.
func word(x int64) int64 {
	r := x % (1 << 32)
	if r < 0 {
		r += 1 << 32
	}
	return r
}

// boundarySets returns every unit-stride set whose bounds are grid
// points, with the grid points it holds.
func boundarySets() ([]vsa.SI, [][]int64) {
	var sets []vsa.SI
	var elems [][]int64
	for _, lo := range boundaryGrid {
		for _, hi := range boundaryGrid {
			if lo > hi {
				continue
			}
			var e []int64
			for _, g := range boundaryGrid {
				if g >= lo && g <= hi {
					e = append(e, g)
				}
			}
			sets = append(sets, vsa.SpanSI(lo, hi, 1))
			elems = append(elems, e)
		}
	}
	return sets, elems
}

// TestIntervalBinaryOpsSoundAtBoundaries checks Add, Sub and MulConst.
func TestIntervalBinaryOpsSoundAtBoundaries(t *testing.T) {
	sets, elems := boundarySets()
	for i, a := range sets {
		for _, x := range elems[i] {
			for _, k := range []int64{-3, 2, 1 << 16} {
				if r := a.MulConst(k); !r.Contains(word(x * k)) {
					t.Fatalf("mulconst %v of %v by %d misses %d", r, a, k, x*k)
				}
			}
		}
		for j, b := range sets {
			add, sub := a.Add(b), a.Sub(b)
			for _, x := range elems[i] {
				for _, y := range elems[j] {
					if !add.Contains(word(x + y)) {
						t.Fatalf("add %v of %v,%v misses %d", add, a, b, x+y)
					}
					if !sub.Contains(word(x - y)) {
						t.Fatalf("sub %v of %v,%v misses %d", sub, a, b, x-y)
					}
				}
			}
		}
	}
}

// TestIntervalNegSoundAtBoundaries checks Neg.
func TestIntervalNegSoundAtBoundaries(t *testing.T) {
	sets, elems := boundarySets()
	for i, a := range sets {
		for _, x := range elems[i] {
			if r := a.Neg(); !r.Contains(word(-x)) {
				t.Fatalf("neg %v of %v misses %d", r, a, -x)
			}
		}
	}
}
