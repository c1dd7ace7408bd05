package core_test

import (
	"os"
	"path/filepath"
	"testing"

	"pgvn/internal/check"
	"pgvn/internal/core"
	"pgvn/internal/opt"
	"pgvn/internal/parser"
	"pgvn/internal/ssa"
)

// TestValueInferenceTwoCycle pins a fixpoint that used to oscillate
// forever. testdata/u442_r0.ir is the first routine of the benchmark's
// serve-cold unit 442 at seed 37 (37 blocks, 509 instructions in SSA
// form). Value inference and folding alone reproduce the cycle: a loop
// φ v510 whose arguments are both congruent to v179 sits under the edge
// v511 == 2, and v511 = φ(…, v510) is congruent to v179 too. Inference
// rewrote v510's argument on that edge to the constant 2, splitting
// v510 from v179; the split made v511 unique, which took the predicate
// away, which let v510 rejoin v179, and so on every other pass. A φ that
// is already congruent to the common leader of its arguments now stays
// there. Every preset must converge within its default pass bound and
// its claims and optimized behaviour must check out.
func TestValueInferenceTwoCycle(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "u442_r0.ir"))
	if err != nil {
		t.Fatal(err)
	}
	orig, err := parser.ParseRoutine(string(src))
	if err != nil {
		t.Fatal(err)
	}
	if err := ssa.Build(orig, ssa.SemiPruned); err != nil {
		t.Fatal(err)
	}
	for _, p := range []struct {
		name string
		cfg  core.Config
	}{
		{"trigger", core.Config{Mode: core.Optimistic, Fold: true, ValueInference: true, Sparse: true}},
		{"default", core.DefaultConfig()},
		{"extended", core.ExtendedConfig()},
		{"complete", core.CompleteConfig()},
		{"balanced", core.BalancedConfig()},
		{"pessimistic", core.PessimisticConfig()},
		{"basic", core.BasicConfig()},
		{"dense", core.DenseConfig()},
		{"click", core.ClickConfig()},
		{"sccp", core.SCCPConfig()},
		{"simpson", core.SimpsonConfig()},
	} {
		t.Run(p.name, func(t *testing.T) {
			work := orig.Clone()
			res, err := core.Run(work, p.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if vs := check.Claims(res); len(vs) != 0 {
				t.Fatalf("claims: %v", vs)
			}
			if _, err := opt.Apply(res); err != nil {
				t.Fatal(err)
			}
			if vs := check.Behavior(orig, work); len(vs) != 0 {
				t.Fatalf("behavior: %v", vs)
			}
		})
	}
}
