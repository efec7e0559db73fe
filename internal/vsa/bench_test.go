package vsa_test

import (
	"testing"

	"wytiwyg/internal/vsa"
)

// analyzeSink keeps the benchmarked analyses observable.
var analyzeSink *vsa.FuncResult

// BenchmarkVSAAnalyze analyzes every function of refined astar (gcc12-O3)
// once per iteration: the fixpoint the VSA stage, type recovery and the
// optimizer's alias oracle all pay for.
func BenchmarkVSAAnalyze(b *testing.B) {
	pl := corpusPipeline(b, "astar", true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range pl.Mod.Funcs {
			analyzeSink = vsa.Analyze(f)
		}
	}
}
