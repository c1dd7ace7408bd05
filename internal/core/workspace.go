package core

import (
	"sync"

	"pgvn/internal/cfg"
	"pgvn/internal/dom"
	"pgvn/internal/ir"
	"pgvn/internal/ssa"
)

// Workspace is the memory one worker reuses from routine to routine: the
// SSA construction scratch (with ir's tables and dom's trees inside it),
// the RPO, the analysis tables, the chunk set a Result's universe and
// classes are carved from, and the Partition. The paper's fixpoint keeps
// all of this per routine (§2); a Workspace keeps only its capacity
// between routines. Reset zeroes what the last routine was handed, so
// the rule that recycled memory holds capacity and never a pointer into
// a finished routine is applied in one place (DESIGN §17).
//
// The zero Workspace is ready to use. One goroutine uses a Workspace at
// a time. A driver worker holds one for its whole batch; Run borrows one
// from a pool for the call.
type Workspace struct {
	ssa   ssa.Scratch
	order cfg.Scratch
	sc    scratch
	part  partTables
	// slabs is lent to the Result of the next RunIn until its Release
	// hands it back; nil while lent.
	slabs *slabs
}

// Reset zeroes every table the last routine was handed and keeps the
// capacity. What the workspace lent — a routine built by ssa.BuildFromIn,
// a RunIn Result — is cleared by its own Release instead, so release
// both before Reset; an unreleased one keeps its memory, and the
// workspace allocates afresh.
func (w *Workspace) Reset() {
	w.ssa.Reset()
	w.order.Reset()
	w.sc.reset()
	w.part.reset()
}

// workspaces is the pool Run borrows from and a driver worker takes its
// workspace from.
var workspaces = sync.Pool{New: func() any { return new(Workspace) }}

func init() {
	ssa.Borrow = func() (*ssa.Scratch, func()) {
		w := GetWorkspace()
		return &w.ssa, func() { PutWorkspace(w) }
	}
}

// GetWorkspace takes a workspace from the pool.
func GetWorkspace() *Workspace { return workspaces.Get().(*Workspace) }

// PutWorkspace resets w and returns it to the pool. Nothing w lent may
// be in use any more, and w must not be used after.
func PutWorkspace(w *Workspace) {
	w.Reset()
	workspaces.Put(w)
}

// SSA returns w's SSA construction scratch, nil for a nil w.
func (w *Workspace) SSA() *ssa.Scratch {
	if w == nil {
		return nil
	}
	return &w.ssa
}

// IR returns w's ir tables, nil for a nil w.
func (w *Workspace) IR() *ir.Scratch {
	if w == nil {
		return nil
	}
	return &w.ssa.IR
}

// Dom returns w's dominator-tree scratch, nil for a nil w.
func (w *Workspace) Dom() *dom.Scratch {
	if w == nil {
		return nil
	}
	return &w.ssa.Dom
}

// Order returns w's RPO scratch, nil for a nil w.
func (w *Workspace) Order() *cfg.Scratch {
	if w == nil {
		return nil
	}
	return &w.order
}
