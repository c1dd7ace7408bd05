package ssa

import "pgvn/internal/ir"

// liveness holds per-variable, per-block liveness for the pruned and
// semi-pruned φ-placement strategies. Variables are identified by the
// dense indices assigned in collect. A builder keeps its liveness for
// reuse: every table is pointer-free and cleared by compute.
type liveness struct {
	words int // uint64 words per set
	// bits holds four sets per block id — upward-exposed reads, writes,
	// live-in and live-out — of words words each.
	bits []uint64
	// global reports, per variable, whether the variable is
	// upward-exposed in any block — Briggs' "global names", the
	// semi-pruned placement filter.
	global []bool
}

// The sets of one block, in bits order.
const (
	setUse = iota
	setDef
	setIn
	setOut
)

// set returns set k of the block with id id.
func (lv *liveness) set(id, k int) []uint64 {
	o := (4*id + k) * lv.words
	return lv.bits[o : o+lv.words : o+lv.words]
}

// compute computes liveness over r's variable instructions, whose
// variables varOf gives by instruction id.
func (lv *liveness) compute(r *ir.Routine, varOf []int32, nvars int) {
	lv.words = (nvars + 63) / 64
	lv.bits = resize(lv.bits, 4*lv.words*r.NumBlockIDs())
	clear(lv.bits)
	lv.global = resize(lv.global, nvars)
	clear(lv.global)
	for _, b := range r.Blocks {
		use, def := lv.set(b.ID, setUse), lv.set(b.ID, setDef)
		for _, i := range b.Instrs {
			switch i.Op {
			case ir.OpVarRead:
				v := varOf[i.ID]
				if def[v/64]&(1<<(v%64)) == 0 {
					use[v/64] |= 1 << (v % 64)
					lv.global[v] = true
				}
			case ir.OpVarWrite, ir.OpParam:
				v := varOf[i.ID]
				def[v/64] |= 1 << (v % 64)
			}
		}
	}
	// Backward iterative dataflow to a fixed point.
	for changed := true; changed; {
		changed = false
		for k := len(r.Blocks) - 1; k >= 0; k-- {
			b := r.Blocks[k]
			out := lv.set(b.ID, setOut)
			for _, e := range b.Succs {
				sin := lv.set(e.To.ID, setIn)
				for w := range out {
					out[w] |= sin[w]
				}
			}
			in := lv.set(b.ID, setIn)
			use, def := lv.set(b.ID, setUse), lv.set(b.ID, setDef)
			for w := range in {
				nw := use[w] | (out[w] &^ def[w])
				if nw != in[w] {
					in[w] = nw
					changed = true
				}
			}
		}
	}
}

// liveIn reports whether variable v is live on entry to block b.
func (lv *liveness) liveIn(b *ir.Block, v int) bool {
	return lv.set(b.ID, setIn)[v/64]&(1<<(v%64)) != 0
}
