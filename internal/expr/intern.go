package expr

import (
	"pgvn/internal/ir"
	"pgvn/internal/slab"
)

// This file implements hash-consing for expressions. An Interner owns a
// universe of canonical *Expr nodes: structurally equal expressions intern
// to the same pointer, so the GVN TABLE can key on *Expr directly and
// congruence lookup costs one hash probe plus pointer comparisons — no
// string key is built on the hot path (Key stays available, lazily
// memoized, for tracing and -explain).
//
// Structural identity deliberately matches the legacy string key: Rank is
// excluded everywhere (the key renders Value atoms as 'v'+ID and sum
// factors by ID), so intern(a) == intern(b) ⇔ Key(a) == Key(b) and the
// partition computed over interned nodes is byte-identical to the
// string-keyed seed.
//
// The table is a power-of-two bucket array with intrusive collision
// chains (Expr.next), grown at 3/4 load. Hashes are FNV-1a folded over
// the node shape, with interior nodes hashing their children's hashes —
// children are canonical by construction, so equality tests compare child
// pointers.
//
// Shared atoms (Bot and the small-constant cache) are canonical in every
// universe: they carry precomputed hashes, are returned by array lookup or
// identity, and never enter any Interner's bucket chains.

// Hash mixing parameters: the FNV-1a offset seeds the state; words are
// folded with one multiply by a 64-bit odd constant (splitmix64's
// increment) plus an xor-shift so the low bits — the bucket index — see
// every input bit. The hash never influences observable output (identity
// is structural, chains are searched by equality), so the mixer is chosen
// purely for speed: one multiply per word instead of FNV's eight.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
	mixMul    uint64 = 0x9E3779B97F4A7C15
)

// fnv1aWord folds one 64-bit word into h.
func fnv1aWord(h, w uint64) uint64 {
	h = (h ^ w) * mixMul
	return h ^ (h >> 32)
}

func fnv1aString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// atomHash hashes leaf expressions (Bottom, Const, Value, Unique,
// BlockTag) by kind and payload. Rank is excluded: it is functionally
// determined by the value ID within one analysis and the legacy key never
// rendered it.
func atomHash(k Kind, c int64) uint64 {
	return fnv1aWord(fnv1aWord(fnvOffset, uint64(k)), uint64(c))
}

// nodeHash hashes interior nodes over kind, operator, callee name, arity
// and the children's structural hashes.
func nodeHash(k Kind, op ir.Op, name string, args []*Expr) uint64 {
	h := fnv1aWord(fnvOffset, uint64(k)|uint64(op)<<8)
	if name != "" {
		h = fnv1aString(h, name)
	}
	h = fnv1aWord(h, uint64(len(args)))
	for _, a := range args {
		h = fnv1aWord(h, a.hash)
	}
	return h
}

// sumHash hashes a canonical term list by coefficients and factor IDs.
func sumHash(ts []Term) uint64 {
	h := fnv1aWord(fnvOffset, uint64(Sum))
	h = fnv1aWord(h, uint64(len(ts)))
	for _, t := range ts {
		h = fnv1aWord(h, uint64(t.Coeff))
		h = fnv1aWord(h, uint64(len(t.Factors)))
		for _, f := range t.Factors {
			h = fnv1aWord(h, uint64(f.ID))
		}
	}
	return h
}

// sameNode reports structural equality between a canonical node and a
// prospective (kind, op, name, children) shape. Children are canonical,
// so comparison is by pointer.
func sameNode(c *Expr, k Kind, op ir.Op, name string, args []*Expr) bool {
	if c.Kind != k || c.Op != op || c.Name != name || len(c.Args) != len(args) {
		return false
	}
	for i := range args {
		if c.Args[i] != args[i] {
			return false
		}
	}
	return true
}

// sameTerms compares canonical term lists by coefficient and factor IDs
// (Rank excluded, mirroring the legacy key).
func sameTerms(a, b []Term) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Coeff != b[i].Coeff || len(a[i].Factors) != len(b[i].Factors) {
			return false
		}
		for j := range a[i].Factors {
			if a[i].Factors[j].ID != b[i].Factors[j].ID {
				return false
			}
		}
	}
	return true
}

// Interner hash-conses expressions into one canonical universe. It is not
// safe for concurrent use; each analysis owns one. The scratch arenas are
// reused across intern operations (reset by truncation, never
// reallocated once warm), which keeps the fixpoint hot path free of
// per-evaluation allocations.
type Interner struct {
	tab   []*Expr // power-of-two bucket heads, chained via Expr.next; all nil when count is 0
	count int     // interned nodes (excludes shared atoms)

	// Scratch arenas. Methods address them by base index (never by saved
	// subslice across an intern call) and truncate on exit, so recursive
	// use (Canon) is safe. Canonical nodes deep-copy out of the arenas on
	// an intern miss.
	terms   []Term
	factors []ValueRef
	flat    []*Expr
	// termsHigh and flatHigh are how far terms and flat reached since
	// the last Release, which clears only that much.
	termsHigh, flatHigh int

	// Bump chunks canonical nodes and their payloads are carved from, so
	// an intern miss costs a slab advance instead of two heap objects.
	// Every chunk belongs to one universe: Reset and Release drop the
	// slabs, so a chunk is only ever pinned by the results of the routine
	// that carved it, or by the Slabs that universe recorded its chunks
	// in. A slab is nil until its universe carves the first chunk, whose
	// length (the *Chunk field) Reset sets from its hint.
	nodes     []Expr
	nodeChunk int
	argSlab   []*Expr
	argChunk  int
	termSlab  []Term
	termChunk int
	facSlab   []ValueRef
	facChunk  int

	// The chunk sets of the Slabs passed to Reset, nil without one.
	nodeSet *slab.Chunks[Expr]
	argSet  *slab.Chunks[*Expr]
	termSet *slab.Chunks[Term]
	facSet  *slab.Chunks[ValueRef]
}

// Slabs records every chunk one universe carves its nodes and their
// payloads from, and keeps spare chunks for the next universe that
// carves through it. Whoever owns the universe's nodes decides when they
// are dead: Clear then zeroes the chunks, whole, for reuse.
type Slabs struct {
	nodes slab.Chunks[Expr]
	args  slab.Chunks[*Expr]
	terms slab.Chunks[Term]
	facs  slab.Chunks[ValueRef]
}

// Clear zeroes every chunk a universe carved through s and makes it
// spare. Every node carved from s is invalid afterwards.
func (s *Slabs) Clear() {
	s.nodes.Clear()
	s.args.Clear()
	s.terms.Clear()
	s.facs.Clear()
}

// Slab chunk bounds, in elements. Over the SPEC-shaped corpus a routine
// interns a median of hint/5 nodes, hint/6 argument slots, hint/8 terms
// and hint/10 factors, where hint is Reset's (twice the instruction count
// in the analysis), so those fractions size each universe's first chunk.
const (
	minNodeChunk, maxNodeChunk = 32, 2048
	minArgChunk, maxArgChunk   = 32, 4096
	minTermChunk, maxTermChunk = 16, 2048
	minFacChunk, maxFacChunk   = 16, 4096
)

// chunkLen is the length of a slab's next chunk: first for the universe's
// first chunk (the slab is still nil) and a quarter of it for each refill,
// so a routine that outgrows the estimate wastes at most a quarter-chunk;
// never below lo, nor below need.
func chunkLen(slabNil bool, first, lo, need int) int {
	if !slabNil {
		first /= 4
	}
	return max(first, lo, need)
}

// newNode carves one zeroed canonical node from the bump chunk.
//
//pgvn:hotpath
func (in *Interner) newNode() *Expr {
	if len(in.nodes) == 0 {
		in.nodes = in.nodeSet.Next(chunkLen(in.nodes == nil, in.nodeChunk, minNodeChunk, 1), 1)
	}
	e := &in.nodes[0]
	in.nodes = in.nodes[1:]
	return e
}

// argAlloc carves a fixed-capacity canonical Args slice of length n.
//
//pgvn:hotpath
func (in *Interner) argAlloc(n int) []*Expr {
	if len(in.argSlab) < n {
		in.argSlab = in.argSet.Next(chunkLen(in.argSlab == nil, in.argChunk, minArgChunk, n), n)
	}
	s := in.argSlab[:n:n]
	in.argSlab = in.argSlab[n:]
	return s
}

// termAlloc carves a fixed-capacity canonical Terms slice of length n.
func (in *Interner) termAlloc(n int) []Term {
	if len(in.termSlab) < n {
		in.termSlab = in.termSet.Next(chunkLen(in.termSlab == nil, in.termChunk, minTermChunk, n), n)
	}
	s := in.termSlab[:n:n]
	in.termSlab = in.termSlab[n:]
	return s
}

// facAlloc carves a fixed-capacity canonical Factors slice of length n.
func (in *Interner) facAlloc(n int) []ValueRef {
	if len(in.facSlab) < n {
		in.facSlab = in.facSet.Next(chunkLen(in.facSlab == nil, in.facChunk, minFacChunk, n), n)
	}
	s := in.facSlab[:n:n]
	in.facSlab = in.facSlab[n:]
	return s
}

// Size returns the number of interned expressions (shared atoms such as
// small constants are canonical everywhere and are not counted).
func (in *Interner) Size() int { return in.count }

// Reset empties the universe for reuse on a new routine, keeping the
// bucket table and scratch arenas warm (resized for roughly hint distinct
// expressions) and starting fresh slab chunks sized from hint. The new
// universe carves its chunks through s, taking s's spare chunks first and
// recording every chunk in s; with a nil s the chunks are plain
// allocations. Nodes interned before the reset stay valid until their
// owner clears the Slabs they were carved through — results retain
// them, with the chunks they were carved from — but they are no longer
// canonical in this universe, so a caller must never mix pre- and
// post-reset nodes in one analysis. The table shrinks when the previous
// routine left it more than 4× oversized, so one giant routine does not
// tax every later small one with clearing costs.
func (in *Interner) Reset(hint int, s *Slabs) {
	in.Release()
	need := 64
	for need*3 < hint*4 { // initial load ≤ 3/4
		need <<= 1
	}
	if need > len(in.tab) || len(in.tab) > 4*need {
		in.tab = make([]*Expr, need)
	}
	in.nodeChunk = min(max(hint/5, minNodeChunk), maxNodeChunk)
	in.argChunk = min(max(hint/6, minArgChunk), maxArgChunk)
	in.termChunk = min(max(hint/8, minTermChunk), maxTermChunk)
	in.facChunk = min(max(hint/10, minFacChunk), maxFacChunk)
	if s != nil {
		in.nodeSet, in.argSet, in.termSet, in.facSet = &s.nodes, &s.args, &s.terms, &s.facs
	}
}

// Release empties the universe and drops every pointer into it, keeping
// only capacity: the bucket table and the pointer-bearing scratch arenas
// are cleared over what they were handed, and the slab chunks and the
// Slabs they were recorded in are let go. An Interner kept in a workspace
// after Release pins nothing of the routine it last served.
func (in *Interner) Release() {
	if in.count > 0 {
		clear(in.tab)
		in.count = 0
	}
	in.cutTerms(0, 0)
	in.cutFlat(0)
	clear(in.terms[:in.termsHigh])
	clear(in.flat[:in.flatHigh])
	in.termsHigh, in.flatHigh = 0, 0
	in.nodes, in.argSlab, in.termSlab, in.facSlab = nil, nil, nil, nil
	in.nodeSet, in.argSet, in.termSet, in.facSet = nil, nil, nil, nil
}

// cutTerms truncates the term and factor scratch back to tbase and
// fbase, recording how far the terms reached.
func (in *Interner) cutTerms(tbase, fbase int) {
	in.termsHigh = max(in.termsHigh, len(in.terms))
	in.terms, in.factors = in.terms[:tbase], in.factors[:fbase]
}

// cutFlat truncates the operand scratch back to base, recording how far
// it reached.
func (in *Interner) cutFlat(base int) {
	in.flatHigh = max(in.flatHigh, len(in.flat))
	in.flat = in.flat[:base]
}

func (in *Interner) bucket(h uint64) *Expr {
	return in.tab[h&uint64(len(in.tab)-1)]
}

// add links a freshly built node into the table and marks it canonical.
func (in *Interner) add(h uint64, e *Expr) *Expr {
	if (in.count+1)*4 > len(in.tab)*3 {
		in.grow()
	}
	e.hash = h
	e.interned = true
	i := h & uint64(len(in.tab)-1)
	e.next = in.tab[i]
	in.tab[i] = e
	in.count++
	return e
}

func (in *Interner) grow() {
	old := in.tab
	in.tab = make([]*Expr, len(old)*2)
	mask := uint64(len(in.tab) - 1)
	for _, c := range old {
		for c != nil {
			nx := c.next
			i := c.hash & mask
			c.next = in.tab[i]
			in.tab[i] = c
			c = nx
		}
	}
}

// Const returns the canonical constant c.
func (in *Interner) Const(c int64) *Expr {
	if c >= -128 && c <= 1024 {
		return smallConsts[c+128]
	}
	h := atomHash(Const, c)
	for e := in.bucket(h); e != nil; e = e.next {
		if e.hash == h && e.Kind == Const && e.C == c {
			return e
		}
	}
	e := in.newNode()
	e.Kind, e.C = Const, c
	return in.add(h, e)
}

// Value returns the canonical atom for value id. The first interning fixes
// the recorded rank; identity ignores rank, exactly as the legacy key did.
func (in *Interner) Value(id, rank int) *Expr {
	h := atomHash(Value, int64(id))
	for e := in.bucket(h); e != nil; e = e.next {
		if e.hash == h && e.Kind == Value && e.C == int64(id) {
			return e
		}
	}
	e := in.newNode()
	e.Kind, e.C, e.Rank = Value, int64(id), rank
	return in.add(h, e)
}

// Unique returns the canonical self-congruent expression of value id.
func (in *Interner) Unique(id int) *Expr {
	h := atomHash(Unique, int64(id))
	for e := in.bucket(h); e != nil; e = e.next {
		if e.hash == h && e.Kind == Unique && e.C == int64(id) {
			return e
		}
	}
	e := in.newNode()
	e.Kind, e.C = Unique, int64(id)
	return in.add(h, e)
}

// BlockTag returns the canonical tag of block id.
func (in *Interner) BlockTag(id int) *Expr {
	h := atomHash(BlockTag, int64(id))
	for e := in.bucket(h); e != nil; e = e.next {
		if e.hash == h && e.Kind == BlockTag && e.C == int64(id) {
			return e
		}
	}
	e := in.newNode()
	e.Kind, e.C = BlockTag, int64(id)
	return in.add(h, e)
}

// internNode interns an interior node with the given canonical children,
// copying args out of scratch on a miss.
//
//pgvn:hotpath
func (in *Interner) internNode(k Kind, op ir.Op, name string, args []*Expr) *Expr {
	h := nodeHash(k, op, name, args)
	for e := in.bucket(h); e != nil; e = e.next {
		if e.hash == h && sameNode(e, k, op, name, args) {
			return e
		}
	}
	e := in.newNode()
	e.Kind, e.Op, e.Name = k, op, name
	e.Args = in.argAlloc(len(args))
	copy(e.Args, args)
	return in.add(h, e)
}

// Compare builds the canonical comparison a op b (see canonCompare).
// Operands must be canonical atoms of this universe.
func (in *Interner) Compare(op ir.Op, a, b *Expr) *Expr {
	op, a, b, done := canonCompare(op, a, b, in.Const)
	if done != nil {
		return done
	}
	h := fnv1aWord(fnvOffset, uint64(Compare)|uint64(op)<<8)
	h = fnv1aWord(h, 2)
	h = fnv1aWord(h, a.hash)
	h = fnv1aWord(h, b.hash)
	for e := in.bucket(h); e != nil; e = e.next {
		if e.hash == h && e.Kind == Compare && e.Op == op && e.Args[0] == a && e.Args[1] == b {
			return e
		}
	}
	e := in.newNode()
	e.Kind, e.Op = Compare, op
	e.Args = in.argAlloc(2)
	e.Args[0], e.Args[1] = a, b
	return in.add(h, e)
}

// NegateCompare returns the canonical negation of a comparison.
func (in *Interner) NegateCompare(e *Expr) *Expr {
	if e.Kind != Compare {
		panic("expr: NegateCompare of " + e.String())
	}
	return in.Compare(e.Op.Negate(), e.Args[0], e.Args[1])
}

// Opaque builds a canonical opaque expression (see canonOpaque) over
// canonical atoms. args may be scratch; it is copied on an intern miss.
func (in *Interner) Opaque(op ir.Op, name string, args []*Expr) *Expr {
	if done := canonOpaque(op, args, in.Const); done != nil {
		return done
	}
	return in.internNode(Opaque, op, name, args)
}

// Phi builds a canonical φ expression, which reduces to the argument when
// all arguments coincide. tag and args must be canonical,
// so the all-same test is pointer equality.
func (in *Interner) Phi(tag *Expr, args []*Expr) *Expr {
	if len(args) > 0 {
		same := true
		for _, a := range args[1:] {
			if a != args[0] {
				same = false
				break
			}
		}
		if same {
			return args[0]
		}
	}
	h := fnv1aWord(fnvOffset, uint64(Phi))
	h = fnv1aWord(h, uint64(len(args)+1))
	h = fnv1aWord(h, tag.hash)
	for _, a := range args {
		h = fnv1aWord(h, a.hash)
	}
	for e := in.bucket(h); e != nil; e = e.next {
		if e.hash != h || e.Kind != Phi || len(e.Args) != len(args)+1 || e.Args[0] != tag {
			continue
		}
		match := true
		for i, a := range args {
			if e.Args[i+1] != a {
				match = false
				break
			}
		}
		if match {
			return e
		}
	}
	e := in.newNode()
	e.Kind = Phi
	e.Args = in.argAlloc(len(args) + 1)
	e.Args[0] = tag
	copy(e.Args[1:], args)
	return in.add(h, e)
}

// And conjoins canonical predicates with NewAnd's flattening and constant
// collapsing, interning the result.
func (in *Interner) And(ops ...*Expr) *Expr {
	base := len(in.flat)
	for _, o := range ops {
		if o == nil || o.IsTrue() {
			continue
		}
		if o.IsFalse() {
			in.cutFlat(base)
			return smallConsts[128]
		}
		if o.Kind == And {
			in.flat = append(in.flat, o.Args...)
			continue
		}
		in.flat = append(in.flat, o)
	}
	var e *Expr
	switch flat := in.flat[base:]; len(flat) {
	case 0:
		e = smallConsts[129]
	case 1:
		e = flat[0]
	default:
		e = in.internNode(And, 0, "", flat)
	}
	in.cutFlat(base)
	return e
}

// internSum lowers a normalized term list to its canonical expression
// (Const/Value for degenerate sums). out may live in scratch; Terms and
// Factors are deep-copied on an intern miss.
func (in *Interner) internSum(out []Term) *Expr {
	switch {
	case len(out) == 0:
		return smallConsts[128]
	case len(out) == 1 && len(out[0].Factors) == 0:
		return in.Const(out[0].Coeff)
	case len(out) == 1 && out[0].Coeff == 1 && len(out[0].Factors) == 1:
		f := out[0].Factors[0]
		return in.Value(f.ID, f.Rank)
	}
	h := sumHash(out)
	for e := in.bucket(h); e != nil; e = e.next {
		if e.hash == h && e.Kind == Sum && sameTerms(e.Terms, out) {
			return e
		}
	}
	ts := in.termAlloc(len(out))
	for i, t := range out {
		fs := in.facAlloc(len(t.Factors))
		copy(fs, t.Factors)
		ts[i] = Term{Coeff: t.Coeff, Factors: fs}
	}
	e := in.newNode()
	e.Kind, e.Terms = Sum, ts
	return in.add(h, e)
}

// termLen returns e's term count in the reassociation algebra, or false
// when e is outside it: constants (zero has no term), values and sums are
// in the algebra; ⊥, predicates, φs and opaques are not.
func termLen(e *Expr) (int, bool) {
	switch e.Kind {
	case Const:
		if e.C == 0 {
			return 0, true
		}
		return 1, true
	case Value:
		return 1, true
	case Sum:
		return len(e.Terms), true
	}
	return 0, false
}

// appendTerms appends e's term-list view onto the scratch arena.
func (in *Interner) appendTerms(e *Expr) {
	switch e.Kind {
	case Const:
		if e.C != 0 {
			in.terms = append(in.terms, Term{Coeff: e.C})
		}
	case Value:
		fbase := len(in.factors)
		in.factors = append(in.factors, ValueRef{ID: int(e.C), Rank: e.Rank})
		in.terms = append(in.terms, Term{Coeff: 1, Factors: in.factors[fbase:]})
	case Sum:
		in.terms = append(in.terms, e.Terms...)
	}
}

// Add returns the canonical a+b, or nil when either operand is outside the
// algebra or the result would exceed limit terms (forward propagation
// cancelled, paper footnote 4).
func (in *Interner) Add(a, b *Expr, limit int) *Expr {
	la, ok := termLen(a)
	if !ok {
		return nil
	}
	lb, ok := termLen(b)
	if !ok {
		return nil
	}
	if la+lb > limit {
		return nil
	}
	tbase, fbase := len(in.terms), len(in.factors)
	in.appendTerms(a)
	in.appendTerms(b)
	e := in.internSum(normalizeTerms(in.terms[tbase:]))
	in.cutTerms(tbase, fbase)
	return e
}

// Sub returns the canonical a-b, or nil (SubExprs semantics).
func (in *Interner) Sub(a, b *Expr, limit int) *Expr {
	la, ok := termLen(a)
	if !ok {
		return nil
	}
	lb, ok := termLen(b)
	if !ok {
		return nil
	}
	if la+lb > limit {
		return nil
	}
	tbase, fbase := len(in.terms), len(in.factors)
	in.appendTerms(a)
	mid := len(in.terms)
	in.appendTerms(b)
	for i := mid; i < len(in.terms); i++ {
		in.terms[i].Coeff = -in.terms[i].Coeff
	}
	e := in.internSum(normalizeTerms(in.terms[tbase:]))
	in.cutTerms(tbase, fbase)
	return e
}

// Neg returns the canonical -a, or nil (NegExpr semantics).
func (in *Interner) Neg(a *Expr) *Expr {
	if _, ok := termLen(a); !ok {
		return nil
	}
	tbase, fbase := len(in.terms), len(in.factors)
	in.appendTerms(a)
	for i := tbase; i < len(in.terms); i++ {
		in.terms[i].Coeff = -in.terms[i].Coeff
	}
	e := in.internSum(normalizeTerms(in.terms[tbase:]))
	in.cutTerms(tbase, fbase)
	return e
}

// Mul returns the canonical a*b by distributing over addition, or nil
// when outside the algebra or beyond limit terms.
// Factor lists of canonical terms are sorted by (rank, id), so each
// product's factor list is a linear merge.
func (in *Interner) Mul(a, b *Expr, limit int) *Expr {
	la, ok := termLen(a)
	if !ok {
		return nil
	}
	lb, ok := termLen(b)
	if !ok {
		return nil
	}
	if la*lb > limit {
		return nil
	}
	tbase, fbase := len(in.terms), len(in.factors)
	in.appendTerms(a)
	mid := len(in.terms)
	in.appendTerms(b)
	ta, tb := in.terms[tbase:mid], in.terms[mid:]
	pbase := len(in.terms)
	for _, x := range ta {
		for _, y := range tb {
			fb := len(in.factors)
			i, j := 0, 0
			for i < len(x.Factors) && j < len(y.Factors) {
				fx, fy := x.Factors[i], y.Factors[j]
				if fx.Rank < fy.Rank || (fx.Rank == fy.Rank && fx.ID <= fy.ID) {
					in.factors = append(in.factors, fx)
					i++
				} else {
					in.factors = append(in.factors, fy)
					j++
				}
			}
			in.factors = append(in.factors, x.Factors[i:]...)
			in.factors = append(in.factors, y.Factors[j:]...)
			in.terms = append(in.terms, Term{Coeff: x.Coeff * y.Coeff, Factors: in.factors[fb:]})
		}
	}
	e := in.internSum(normalizeTerms(in.terms[pbase:]))
	in.cutTerms(tbase, fbase)
	return e
}

// Canon interns an arbitrary expression tree verbatim — no simplification
// or reordering — and returns its canonical node. It is how raw predicate
// trees built by φ-predication (mutable Or nodes whose operand order maps
// 1:1 to canonical edge order, placeholder operands included) enter the
// universe at setBlockPredicate time. Canonical nodes (of this universe or
// the shared atoms) short-circuit.
func (in *Interner) Canon(e *Expr) *Expr {
	if e == nil {
		return nil
	}
	if e.interned {
		return e
	}
	switch e.Kind {
	case Bottom:
		return Bot
	case Const:
		return in.Const(e.C)
	case Value:
		return in.Value(int(e.C), e.Rank)
	case Unique:
		return in.Unique(int(e.C))
	case BlockTag:
		return in.BlockTag(int(e.C))
	case Sum:
		// Verbatim: no re-normalization or degenerate lowering (a raw sum
		// interns as written, exactly as its key renders).
		h := sumHash(e.Terms)
		for c := in.bucket(h); c != nil; c = c.next {
			if c.hash == h && c.Kind == Sum && sameTerms(c.Terms, e.Terms) {
				return c
			}
		}
		c := in.newNode()
		c.Kind, c.Terms = Sum, e.Terms
		return in.add(h, c)
	default: // Compare, Phi, And, Or, Opaque
		base := len(in.flat)
		for _, a := range e.Args {
			in.flat = append(in.flat, in.Canon(a))
		}
		out := in.internNode(e.Kind, e.Op, e.Name, in.flat[base:])
		in.cutFlat(base)
		return out
	}
}
