package workload_test

import (
	"math/rand"
	"testing"

	"pgvn/internal/core"
	"pgvn/internal/interp"
	"pgvn/internal/opt"
	"pgvn/internal/ssa"
	"pgvn/internal/workload"
)

// TestTortureLargeRoutines pushes much larger, deeper routines through the
// full pipeline under the strongest configurations, checking interpreter
// equivalence. Skipped in -short mode.
func TestTortureLargeRoutines(t *testing.T) {
	if testing.Short() {
		t.Skip("torture test skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(77))
	configs := []core.Config{
		core.DefaultConfig(),
		core.CompleteConfig(),
		core.ExtendedConfig(),
		core.DenseConfig(),
	}
	for seed := int64(0); seed < 6; seed++ {
		orig := workload.Generate("torture", workload.GenConfig{
			Seed: 9000 + seed, Stmts: 150, Params: 4, MaxLoopDepth: 3,
		})
		ssaForm := orig.Clone()
		if err := ssa.Build(ssaForm, ssa.SemiPruned); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for ci, cfg := range configs {
			work := ssaForm.Clone()
			res, err := core.Run(work, cfg)
			if err != nil {
				t.Fatalf("seed %d cfg %d: %v", seed, ci, err)
			}
			if _, err := opt.Apply(res); err != nil {
				t.Fatalf("seed %d cfg %d: %v", seed, ci, err)
			}
			for trial := 0; trial < 4; trial++ {
				args := make([]int64, 4)
				for k := range args {
					args[k] = rng.Int63n(40) - 15
				}
				want, err0 := interp.Run(orig, args, 2_000_000)
				got1, err1 := interp.Run(work, args, 2_000_000)
				if err0 != nil || err1 != nil {
					t.Fatalf("seed %d cfg %d %v: errs %v %v", seed, ci, args, err0, err1)
				}
				if got1 != want {
					t.Fatalf("seed %d cfg %d %v: %d, want %d", seed, ci, args, got1, want)
				}
			}
		}
	}
}
