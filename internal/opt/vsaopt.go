package opt

import (
	"wytiwyg/internal/ir"
)

// VSA-driven optimization. The syntactic escape analysis gives up on any
// slot whose address is stored to memory — the pointer-table pattern — and
// MemOpt then treats every access it cannot resolve syntactically as a
// possible overlap. The value-set oracle separates such accesses, which
// keeps forwarded values live and pending stores unobserved across them
// (MemOptWith).

// AliasOracle is the alias interface the optimizer consumes. It is
// implemented by vsa.Oracle; opt only depends on the contract so the
// packages stay layered. Answers must be conservative: false means
// "cannot prove".
type AliasOracle interface {
	// MustNotAlias reports proven byte-disjointness of two accesses.
	MustNotAlias(a *ir.Value, szA int64, b *ir.Value, szB int64) bool
}

// accSz normalizes the IR's 0-means-4 access width.
func accSz(size uint8) int64 {
	if size == 0 {
		return 4
	}
	return int64(size)
}
