package ssa

import "pgvn/internal/ir"

// liveness holds per-variable, per-block liveness for the pruned and
// semi-pruned φ-placement strategies. Variables are identified by the
// dense indices assigned in Build; the bitsets are indexed by block ID
// and carved from one []uint64.
type liveness struct {
	r       *ir.Routine
	nvars   int
	use     [][]uint64 // upward-exposed reads
	def     [][]uint64 // writes
	in, out [][]uint64 // live-in / live-out
}

// newLiveness computes liveness over r's variable instructions, whose
// variables varOf gives by instruction id.
func newLiveness(r *ir.Routine, varOf []int32, nvars int) *liveness {
	nb := r.NumBlockIDs()
	words := (nvars + 63) / 64
	lv := &liveness{r: r, nvars: nvars}
	sets := make([][]uint64, 4*nb)
	lv.use, lv.def, lv.in, lv.out = sets[:nb:nb], sets[nb:2*nb:2*nb], sets[2*nb:3*nb:3*nb], sets[3*nb:]
	bits := make([]uint64, 4*words*len(r.Blocks))
	carve := func() []uint64 {
		s := bits[:words:words]
		bits = bits[words:]
		return s
	}
	for _, b := range r.Blocks {
		use, def := carve(), carve()
		for _, i := range b.Instrs {
			switch i.Op {
			case ir.OpVarRead:
				v := varOf[i.ID]
				if def[v/64]&(1<<(v%64)) == 0 {
					use[v/64] |= 1 << (v % 64)
				}
			case ir.OpVarWrite, ir.OpParam:
				v := varOf[i.ID]
				def[v/64] |= 1 << (v % 64)
			}
		}
		lv.use[b.ID] = use
		lv.def[b.ID] = def
		lv.in[b.ID] = carve()
		lv.out[b.ID] = carve()
	}
	// Backward iterative dataflow to a fixed point.
	for changed := true; changed; {
		changed = false
		for k := len(r.Blocks) - 1; k >= 0; k-- {
			b := r.Blocks[k]
			out := lv.out[b.ID]
			for _, e := range b.Succs {
				sin := lv.in[e.To.ID]
				for w := range out {
					out[w] |= sin[w]
				}
			}
			in := lv.in[b.ID]
			use, def := lv.use[b.ID], lv.def[b.ID]
			for w := range in {
				nw := use[w] | (out[w] &^ def[w])
				if nw != in[w] {
					in[w] = nw
					changed = true
				}
			}
		}
	}
	return lv
}

// liveIn reports whether variable v is live on entry to block b.
func (lv *liveness) liveIn(b *ir.Block, v int) bool {
	return lv.in[b.ID][v/64]&(1<<(v%64)) != 0
}

// globals returns, per variable, whether the variable is upward-exposed in
// any block — Briggs' "global names", the semi-pruned placement filter.
func (lv *liveness) globals() []bool {
	g := make([]bool, lv.nvars)
	for _, b := range lv.r.Blocks {
		use := lv.use[b.ID]
		for v := 0; v < lv.nvars; v++ {
			if use[v/64]&(1<<(v%64)) != 0 {
				g[v] = true
			}
		}
	}
	return g
}
