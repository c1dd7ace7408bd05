package expr

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"pgvn/internal/slab"
)

// TestSlabsClearZeroesChunks holds Slabs to DESIGN §17. A universe
// carved through a Slabs records every chunk in it; a released Interner
// keeps no reference to the set; Clear zeroes every chunk whole, so a
// set a workspace keeps between routines pins nothing of the universe;
// and the same universe carved again through the cleared set takes all
// its chunks from the spares.
func TestSlabsClearZeroesChunks(t *testing.T) {
	s := &Slabs{}
	in := newInterner(0)
	carve := func() [4]int {
		r := rand.New(rand.NewSource(5))
		in.Reset(0, s)
		for range 2000 {
			in.Canon(randExpr(r, 3))
			// Sums of products, for the term and factor chunks.
			x, y := r.Intn(40), r.Intn(40)
			a, b := in.Value(x, x+1), in.Value(y, y+1)
			in.Mul(in.Add(a, b, 16), in.Add(b, in.Const(int64(x)), 16), 16)
		}
		return [4]int{chunkCount(&s.nodes), chunkCount(&s.args), chunkCount(&s.terms), chunkCount(&s.facs)}
	}
	first := carve()
	for k, n := range first {
		if n == 0 {
			t.Fatalf("slab kind %d recorded no chunk", k)
		}
	}
	in.Release()
	if in.nodeSet != nil || in.argSet != nil || in.termSet != nil || in.facSet != nil {
		t.Fatal("a released Interner still carves through its Slabs")
	}
	s.Clear()
	for _, chunk := range wholeChunks(&s.nodes) {
		for k := range chunk {
			if !reflect.ValueOf(&chunk[k]).Elem().IsZero() {
				t.Fatalf("a cleared node chunk holds %s at %d", chunk[k].Key(), k)
			}
		}
	}
	for _, chunk := range wholeChunks(&s.args) {
		for k, e := range chunk {
			if e != nil {
				t.Fatalf("a cleared argument chunk holds %s at %d", e.Key(), k)
			}
		}
	}
	for _, chunk := range wholeChunks(&s.terms) {
		for k := range chunk {
			if chunk[k].Coeff != 0 || chunk[k].Factors != nil {
				t.Fatalf("a cleared term chunk holds %+v at %d", chunk[k], k)
			}
		}
	}
	for _, chunk := range wholeChunks(&s.facs) {
		for k, f := range chunk {
			if f != (ValueRef{}) {
				t.Fatalf("a cleared factor chunk holds %+v at %d", f, k)
			}
		}
	}
	s.Clear() // wholeChunks handed every chunk out again
	if again := carve(); again != first {
		t.Fatalf("carving the same universe again grew the chunk counts from %v to %v", first, again)
	}
}

// wholeChunks hands out every chunk of a cleared set, each whole: Next
// returns the spares in order, cut to their full capacity.
func wholeChunks[T any](c *slab.Chunks[T]) [][]T {
	out := make([][]T, chunkCount(c))
	for k := range out {
		out[k] = c.Next(math.MaxInt, 0)
	}
	return out
}

// chunkCount is the number of chunks c records, handed out and spare.
func chunkCount[T any](c *slab.Chunks[T]) int {
	return reflect.ValueOf(c).Elem().FieldByName("list").Len()
}
