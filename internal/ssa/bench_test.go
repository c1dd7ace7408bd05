package ssa_test

import (
	"testing"

	"pgvn/internal/ssa"
	"pgvn/internal/workload"
)

func BenchmarkBuild(b *testing.B) {
	for _, p := range []struct {
		name      string
		placement ssa.Placement
	}{
		{"minimal", ssa.Minimal},
		{"semipruned", ssa.SemiPruned},
		{"pruned", ssa.Pruned},
	} {
		b.Run(p.name, func(b *testing.B) {
			orig := workload.Generate("bench", workload.GenConfig{
				Seed: 42, Stmts: 120, Params: 3, MaxLoopDepth: 2,
			})
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				r := orig.Clone()
				if err := ssa.Build(r, p.placement); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuildFrom is BenchmarkBuild's copying form: the SSA routine
// is materialized straight from the unchanged source, with no clone.
func BenchmarkBuildFrom(b *testing.B) {
	for _, p := range placements {
		b.Run(p.name, func(b *testing.B) {
			orig := workload.Generate("bench", workload.GenConfig{
				Seed: 42, Stmts: 120, Params: 3, MaxLoopDepth: 2,
			})
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if _, err := ssa.BuildFrom(orig, p.p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDestruct(b *testing.B) {
	orig := workload.Generate("bench", workload.GenConfig{
		Seed: 42, Stmts: 120, Params: 3, MaxLoopDepth: 2,
	})
	if err := ssa.Build(orig, ssa.SemiPruned); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		r := orig.Clone()
		if err := ssa.Destruct(r); err != nil {
			b.Fatal(err)
		}
	}
}
