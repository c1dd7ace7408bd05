package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// testKey makes a well-formed content address from an integer.
func testKey(i int) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("key-%d", i)))
	return hex.EncodeToString(h[:])
}

func TestRingDeterministicAcrossInsertionOrder(t *testing.T) {
	a := NewRing(0)
	b := NewRing(0)
	for _, m := range []string{"n1", "n2", "n3"} {
		a.Add(m)
	}
	for _, m := range []string{"n3", "n1", "n2"} {
		b.Add(m)
	}
	for i := 0; i < 1000; i++ {
		k := testKey(i)
		oa, _ := a.Owner(k)
		ob, _ := b.Owner(k)
		if oa != ob {
			t.Fatalf("key %d: owner %q vs %q depending on insertion order", i, oa, ob)
		}
	}
}

// TestRingBalance checks virtual nodes spread ownership roughly fairly:
// no member of three owns less than half or more than double its fair
// share over a large key sample.
func TestRingBalance(t *testing.T) {
	r := NewRing(0)
	members := []string{"n1", "n2", "n3"}
	for _, m := range members {
		r.Add(m)
	}
	counts := map[string]int{}
	const n = 30000
	for i := 0; i < n; i++ {
		owner, ok := r.Owner(testKey(i))
		if !ok {
			t.Fatal("empty ring")
		}
		counts[owner]++
	}
	fair := n / len(members)
	for _, m := range members {
		if c := counts[m]; c < fair/2 || c > fair*2 {
			t.Fatalf("member %s owns %d of %d keys (fair %d): ring too skewed", m, c, n, fair)
		}
	}
}

// TestRingStability is the consistent-hashing property: removing one
// member of four moves only that member's keys — no key migrates
// between two surviving members — and re-adding it restores the exact
// original assignment.
func TestRingStability(t *testing.T) {
	r := NewRing(0)
	members := []string{"n1", "n2", "n3", "n4"}
	for _, m := range members {
		r.Add(m)
	}
	const n = 10000
	before := make([]string, n)
	for i := range before {
		before[i], _ = r.Owner(testKey(i))
	}
	r.Remove("n2")
	moved := 0
	for i := 0; i < n; i++ {
		after, _ := r.Owner(testKey(i))
		if after == "n2" {
			t.Fatalf("key %d still owned by removed member", i)
		}
		if before[i] != "n2" && after != before[i] {
			t.Fatalf("key %d moved %s -> %s though neither is the removed member", i, before[i], after)
		}
		if before[i] == "n2" {
			moved++
		}
	}
	if moved == 0 || moved > n/2 {
		t.Fatalf("removed member owned %d of %d keys: implausible share", moved, n)
	}
	r.Add("n2")
	for i := 0; i < n; i++ {
		if again, _ := r.Owner(testKey(i)); again != before[i] {
			t.Fatalf("key %d not restored after re-add: %s vs %s", i, again, before[i])
		}
	}
}

func TestRingEmptyAndMembers(t *testing.T) {
	r := NewRing(8)
	if _, ok := r.Owner(testKey(1)); ok {
		t.Fatal("empty ring returned an owner")
	}
	r.Add("a")
	r.Add("a") // idempotent
	r.Add("b")
	if got := r.Members(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Members = %v", got)
	}
	r.Remove("c") // idempotent
	r.Remove("a")
	if r.Size() != 1 {
		t.Fatalf("Size = %d", r.Size())
	}
	if owner, ok := r.Owner(testKey(2)); !ok || owner != "b" {
		t.Fatalf("single-member ring owner = %q, %v", owner, ok)
	}
}

// TestKeyPoint checks hex store keys route by their own leading bits
// and arbitrary strings still map deterministically.
func TestKeyPoint(t *testing.T) {
	k := testKey(7)
	if KeyPoint(k) != KeyPoint(k) {
		t.Fatal("KeyPoint not deterministic")
	}
	if KeyPoint("not-hex-at-all") == 0 {
		t.Fatal("fallback hash degenerate")
	}
	if KeyPoint(k) == KeyPoint(testKey(8)) {
		t.Fatal("distinct keys collide")
	}
}
