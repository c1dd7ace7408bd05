package ir

import "testing"

// TestTablesReleaseDropsPointers holds idTables to DESIGN §17: after
// release, no pointer table the pool keeps refers to the last routine,
// and the next acquisition finds them nil-filled.
func TestTablesReleaseDropsPointers(t *testing.T) {
	r := NewRoutine("f")
	x := r.AddParam("x")
	r.Append(r.Entry(), OpReturn, x)
	tab := &idTables{}
	instrs, blocks, slots := tab.instrTable(4), tab.blockTable(3), tab.slotTable(5)
	instrs[3], blocks[2], slots[4] = x, r.Entry(), idSlot{owner: x, uses: 1}
	tab.release()
	for k, i := range tab.instrs[:cap(tab.instrs)] {
		if i != nil {
			t.Errorf("released instruction table holds %s at %d", i.ValueName(), k)
		}
	}
	for k, b := range tab.blocks[:cap(tab.blocks)] {
		if b != nil {
			t.Errorf("released block table holds %s at %d", b.Name, k)
		}
	}
	for k, s := range tab.slots[:cap(tab.slots)] {
		if s != (idSlot{}) {
			t.Errorf("released id slots hold %+v at %d", s, k)
		}
	}
}
