package ir

import (
	"fmt"
	"strings"
)

// DOT renders the routine's control-flow graph in GraphViz dot syntax:
// one record-shaped node per block listing its instructions, one edge per
// CFG edge (branch edges labelled T/F, switch edges by case).
//
// The optional decorate callback may add extra node attributes (e.g.
// coloring from an analysis result); it receives each block and returns
// attribute text such as `,fillcolor="gray",style=filled` (or "").
func (r *Routine) DOT(decorate func(*Block) string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n", r.Name)
	sb.WriteString("  node [shape=box, fontname=\"monospace\", fontsize=10];\n")
	for _, b := range r.Blocks {
		var label strings.Builder
		label.WriteString(b.Name + ":\\l")
		for _, i := range b.Instrs {
			label.WriteString("  " + escapeDOT(i.String()) + "\\l")
		}
		extra := ""
		if decorate != nil {
			extra = decorate(b)
		}
		fmt.Fprintf(&sb, "  %q [label=\"%s\"%s];\n", b.Name, label.String(), extra)
	}
	for _, b := range r.Blocks {
		term := b.Terminator()
		for k, e := range b.Succs {
			attr := ""
			if term != nil {
				switch term.Op {
				case OpBranch:
					if k == 0 {
						attr = " [label=\"T\"]"
					} else {
						attr = " [label=\"F\"]"
					}
				case OpSwitch:
					if k < len(b.Cases) {
						attr = fmt.Sprintf(" [label=\"%d\"]", b.Cases[k])
					} else {
						attr = " [label=\"default\"]"
					}
				}
			}
			fmt.Fprintf(&sb, "  %q -> %q%s;\n", b.Name, e.To.Name, attr)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

func escapeDOT(s string) string {
	s = strings.ReplaceAll(s, "\\", "\\\\")
	s = strings.ReplaceAll(s, "\"", "\\\"")
	return s
}
