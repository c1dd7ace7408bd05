package driver

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"pgvn/internal/core"
	"pgvn/internal/expr"
	"pgvn/internal/ir"
	"pgvn/internal/ssa"
)

// TestWorkspaceOwnership holds the driver's workspace to DESIGN §17.
// A workspace runs the whole pipeline of a large routine, a small one
// and the large one again, each followed by the Reset a driver worker
// makes between routines. After every Reset:
//   - no pointer table holds a finished routine: nothing reachable from
//     the workspace is a routine, block, instruction, edge or
//     expression, a non-empty string or a non-empty map;
//   - every table and every chunk is zero whole, past what it handed out
//     as well, including the SSA storage and the universe and class
//     chunks that the routine's Release and its Result's Release handed
//     back;
//   - capacity is kept: Reset shrinks no table or chunk set, none
//     shrinks after the small routine, and the large routine again grows
//     none.
//
// Release itself drops every field of the materialized routine and
// leaves a routine it did not build alone.
func TestWorkspaceOwnership(t *testing.T) {
	var small, large *ir.Routine
	for _, r := range corpusRoutines(t, 0.2) {
		if small == nil || r.NumInstrIDs() < small.NumInstrIDs() {
			small = r
		}
		if large == nil || r.NumInstrIDs() > large.NumInstrIDs() {
			large = r
		}
	}
	d := New(Config{Core: core.DefaultConfig(), PRE: true})
	ws := new(core.Workspace)
	run := func(r *ir.Routine) map[string]int {
		if rr := d.one(ws, nil, 0, r); rr.Err != nil {
			t.Fatal(rr.Err)
		}
		used := audit(ws).caps
		ws.Reset()
		a := audit(ws)
		var faults []string
		for f := range a.faults {
			faults = append(faults, f)
		}
		sort.Strings(faults)
		for _, f := range faults {
			t.Errorf("after %s: %s", r.Name, f)
		}
		for path, c := range used {
			// A chunk set the interner reached before Reset is reached
			// through the workspace's own pointer after it.
			if kept, ok := a.caps[path]; ok && kept != c {
				t.Errorf("after %s: Reset took %s from %d to %d", r.Name, path, c, a.caps[path])
			}
		}
		return a.caps
	}
	first := run(large)
	afterSmall := run(small)
	again := run(large)
	for path, c := range first {
		if afterSmall[path] < c {
			t.Errorf("%s shrank from %d to %d after a small routine", path, c, afterSmall[path])
		}
		if again[path] != c {
			t.Errorf("%s went from %d to %d when the large routine ran again", path, c, again[path])
		}
	}

	work, err := ssa.BuildFromIn(ws.SSA(), small, ssa.SemiPruned)
	if err != nil {
		t.Fatal(err)
	}
	work.Release()
	if !reflect.ValueOf(work).Elem().IsZero() {
		t.Error("a released routine keeps some of its fields")
	}
	want := small.String()
	small.Release()
	if got := small.String(); got != want {
		t.Fatalf("Release changed a routine MaterializeSSA did not build:\n%s\nwant\n%s", got, want)
	}
}

// audited is what audit found: its faults, and the capacity of every
// table (elements) and chunk set (chunks) by path.
type audited struct {
	faults map[string]bool
	caps   map[string]int
	seen   map[[2]uintptr]bool
}

// routineTypes are the pointer types a workspace must never hold after
// Reset: they belong to a finished routine or its expression universe.
var routineTypes = map[reflect.Type]bool{
	reflect.TypeOf((*ir.Routine)(nil)): true,
	reflect.TypeOf((*ir.Block)(nil)):   true,
	reflect.TypeOf((*ir.Instr)(nil)):   true,
	reflect.TypeOf((*ir.Edge)(nil)):    true,
	reflect.TypeOf((*expr.Expr)(nil)):  true,
}

// audit walks everything reachable from ws, unexported fields included.
func audit(ws *core.Workspace) *audited {
	a := &audited{faults: map[string]bool{}, caps: map[string]int{}, seen: map[[2]uintptr]bool{}}
	a.walk(reflect.ValueOf(ws).Elem(), "ws")
	return a
}

func (a *audited) fault(format string, args ...any) {
	a.faults[fmt.Sprintf(format, args...)] = true
}

// slabType reports whether t is slab's generic type named kind.
func slabType(t reflect.Type, kind string) bool {
	return t.PkgPath() == "pgvn/internal/slab" && strings.HasPrefix(t.Name(), kind+"[")
}

// zeroWhole reports whether s is zero over its whole capacity.
func zeroWhole(s reflect.Value) bool {
	s = s.Slice(0, s.Cap())
	for k := 0; k < s.Len(); k++ {
		if !s.Index(k).IsZero() {
			return false
		}
	}
	return true
}

func (a *audited) walk(v reflect.Value, path string) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return
		}
		if routineTypes[v.Type()] {
			a.fault("%s holds a %s", path, v.Type())
			return
		}
		key := [2]uintptr{v.Pointer(), reflect.ValueOf(v.Type()).Pointer()}
		if !a.seen[key] {
			a.seen[key] = true
			a.walk(v.Elem(), path)
		}
	case reflect.Interface:
		if !v.IsNil() {
			a.walk(v.Elem(), path)
		}
	case reflect.Struct:
		switch t := v.Type(); {
		case slabType(t, "Table"):
			s := v.Field(0)
			a.caps[path] = s.Cap()
			if !zeroWhole(s) {
				a.fault("table %s is not zero whole", path)
			}
			a.walk(s, path)
		case slabType(t, "Chunks"):
			list := v.FieldByName("list")
			a.caps[path] = list.Len()
			for k := 0; k < list.Len(); k++ {
				if !zeroWhole(list.Index(k)) {
					a.fault("chunk %d of %s is not zero whole", k, path)
				}
			}
			a.walk(list, path)
		default:
			for k := 0; k < v.NumField(); k++ {
				a.walk(v.Field(k), path+"."+t.Field(k).Name)
			}
		}
	case reflect.Slice:
		v = v.Slice(0, v.Cap())
		fallthrough
	case reflect.Array:
		for k := 0; k < v.Len(); k++ {
			a.walk(v.Index(k), path+"[]")
		}
	case reflect.Map:
		if v.Len() > 0 {
			a.fault("map %s holds %d entries", path, v.Len())
		}
	case reflect.String:
		if v.Len() > 0 {
			a.fault("%s holds the string %q", path, v.String())
		}
	}
}
