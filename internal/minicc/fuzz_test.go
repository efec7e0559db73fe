package minicc_test

import (
	"testing"

	"wytiwyg/internal/bench/progs"
	"wytiwyg/internal/minicc"
	"wytiwyg/internal/minicc/gen"
)

// maxFuzzSrc caps a FuzzMiniC input, as a bound on the work one input can
// ask for; every corpus source is below it.
const maxFuzzSrc = 4 << 10

// FuzzMiniC feeds inline mini-C, as the daemon accepts it, through the
// whole compiler — lexer, parser, checker and code generator — under one
// of the compiler profiles. The result must be an image or an error, never
// a panic.
func FuzzMiniC(f *testing.F) {
	for i, p := range progs.All {
		f.Add(p.Src, uint8(i))
	}
	for _, c := range parseErrorCases {
		f.Add(c.src, uint8(0))
	}
	for _, c := range checkErrorCases {
		f.Add(c.src, uint8(1))
	}
	for _, src := range minicc.BadParseSrcs {
		f.Add(src, uint8(2))
	}
	for _, src := range minicc.BadCheckSrcs {
		f.Add(src, uint8(3))
	}
	f.Fuzz(func(t *testing.T, src string, prof uint8) {
		if len(src) > maxFuzzSrc {
			t.Skip()
		}
		img, err := gen.Build(src, gen.Profiles[int(prof)%len(gen.Profiles)], "fuzz")
		if err == nil && img == nil {
			t.Fatal("gen.Build returned neither an image nor an error")
		}
	})
}
