package core

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"pgvn/internal/obs"
)

// TestFigure2PredicateOfBlock11 pins the φ-predication internals the
// paper's §2.10 walkthrough documents explicitly: the reachable paths from
// block 6 to block 11 arrive in canonical order ⟨9→11, 10→11, 6→11⟩, and
// PREDICATE[11] is the corresponding three-way OR over X-range conditions.
// PREDICATE[14] must be the same expression — that is exactly what makes
// Q14 ≅ P11.
func TestFigure2PredicateOfBlock11(t *testing.T) {
	res := analyze(t, figure1Source, DefaultConfig())
	r := res.Routine

	b11 := blockByName(t, r, "b11")
	p11, canon11 := res.BlockPredicate(b11)
	if p11 == "" {
		t.Fatalf("block 11 has no predicate")
	}
	// Canonical order: from b9 (the X>9 exit), from b10 (P=I), from b6
	// (the X<1 skip).
	if len(canon11) != 3 {
		t.Fatalf("CANONICAL[11] has %d edges, want 3: %v", len(canon11), canon11)
	}
	wantOrder := []string{"b9", "b10", "b6"}
	for k, e := range canon11 {
		if e.From.Name != wantOrder[k] {
			t.Errorf("CANONICAL[11][%d] from %s, want %s", k, e.From.Name, wantOrder[k])
		}
	}
	// The predicate is an OR of three path conditions over X.
	if !strings.Contains(p11, "∨") || strings.Count(p11, "∨") != 2 {
		t.Errorf("PREDICATE[11] not a 3-way OR: %s", p11)
	}
	if !strings.Contains(p11, "X") {
		t.Errorf("PREDICATE[11] does not mention X: %s", p11)
	}

	// Block 14's predicate matches block 11's — the φ-predication
	// congruence.
	b14 := blockByName(t, r, "b14")
	p14, canon14 := res.BlockPredicate(b14)
	if p14 != p11 {
		t.Errorf("PREDICATE[14] ≠ PREDICATE[11]:\n%s\nvs\n%s", p14, p11)
	}
	if len(canon14) != 3 {
		t.Errorf("CANONICAL[14] has %d edges", len(canon14))
	}

	// Edge predicates from the walkthrough: 5→6 carries X = Y (after
	// canonicalization), and the b14→b15 edge carries Z > 1 in the
	// normalized form 2 ≤ Z.
	preds := edgePredicates(t, figure1Source)
	b5 := blockByName(t, r, "b5")
	if got := preds[b5.Succs[0].To.Name+"←b5"]; !strings.HasPrefix(got, "eq(") || !strings.Contains(got, "X") {
		t.Errorf("PREDICATE[5→6] = %q, want an X=Y equality", got)
	}
	if got := preds[b14.Succs[0].To.Name+"←b14"]; got != "le(c2,Z)" {
		t.Errorf("PREDICATE[14→15] = %q, want le(c2,Z), that is 2 ≤ Z", got)
	}
}

// edgePredicates analyzes src under a ring tracer and returns each edge's
// final predicate, keyed "to←from" by block name, as the key of its
// expression with value ids replaced by value names. The fixpoint emits a
// KindEdgePred event whenever an edge predicate changes, so the last
// event per edge holds the predicate the analysis ended with; edges whose
// predicate ended cleared are left out.
func edgePredicates(t *testing.T, src string) map[string]string {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Trace = obs.NewTracer(0)
	res := analyze(t, src, cfg)
	blocks := make(map[int]string)
	for _, b := range res.Routine.Blocks {
		blocks[b.ID] = b.Name
	}
	value := regexp.MustCompile(`\bv(\d+)`)
	preds := make(map[string]string)
	for _, ev := range cfg.Trace.Events() {
		if ev.Kind != obs.KindEdgePred {
			continue
		}
		edge := blocks[int(ev.Arg)] + "←" + blocks[ev.Block]
		if ev.Note == "" {
			delete(preds, edge)
			continue
		}
		preds[edge] = value.ReplaceAllStringFunc(ev.Note, func(v string) string {
			id, _ := strconv.Atoi(v[1:])
			return res.byID[id].ValueName()
		})
	}
	if cfg.Trace.Emitted() != len(cfg.Trace.Events()) {
		t.Fatalf("ring tracer dropped %d events", cfg.Trace.Emitted()-len(cfg.Trace.Events()))
	}
	return preds
}

// TestBlockPredicateNullifiedOnLoops: blocks whose predicate computation
// crosses a back edge stay predicate-free (the §3 permanent
// nullification), and loop heads never get predicates.
func TestBlockPredicateNullifiedOnLoops(t *testing.T) {
	res := analyze(t, figure1Source, DefaultConfig())
	r := res.Routine
	for _, name := range []string{"b2", "b18"} {
		if p, _ := res.BlockPredicate(blockByName(t, r, name)); p != "" {
			t.Errorf("block %s unexpectedly has predicate %q", name, p)
		}
	}
}
