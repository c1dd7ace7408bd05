// Tradeoffs demonstrates the paper's compile-time/strength tradeoff
// surface (§1.3): the same corpus analyzed under every mode and baseline
// emulation, with strength (unreachable values, constants, classes) and
// time side by side. This is what lets a compiler spend optimistic-level
// effort only on hot routines and balanced-level effort elsewhere.
package main

import (
	"fmt"
	"log"
	"time"

	"pgvn/internal/core"
	"pgvn/internal/ssa"
	"pgvn/internal/workload"
)

func main() {
	corpus := workload.Corpus(0.1)
	configs := []struct {
		name string
		cfg  core.Config
	}{
		{"optimistic (full)", core.DefaultConfig()},
		{"optimistic extended", core.ExtendedConfig()},
		{"optimistic complete", core.CompleteConfig()},
		{"balanced", core.BalancedConfig()},
		{"pessimistic", core.PessimisticConfig()},
		{"basic (no predicates)", core.BasicConfig()},
		{"Click emulation", core.ClickConfig()},
		{"Wegman–Zadeck emulation", core.SCCPConfig()},
		{"Simpson/AWZ emulation", core.SimpsonConfig()},
	}

	fmt.Printf("%-26s %9s %8s %8s %8s %8s\n",
		"configuration", "time", "unreach", "const", "classes", "passes")
	for _, c := range configs {
		var total core.Counts
		var passes int
		start := time.Now()
		for _, b := range corpus {
			for _, r := range b.Routines {
				work, err := ssa.BuildFrom(r, ssa.SemiPruned)
				if err != nil {
					log.Fatal(err)
				}
				res, err := core.Run(work, c.cfg)
				if err != nil {
					log.Fatal(err)
				}
				cnt := res.Count()
				total.UnreachableValues += cnt.UnreachableValues
				total.ConstantValues += cnt.ConstantValues
				total.Classes += cnt.Classes
				total.Values += cnt.Values
				passes += res.Stats.Passes
			}
		}
		fmt.Printf("%-26s %9s %8d %8d %8d %8d\n",
			c.name, time.Since(start).Round(time.Millisecond),
			total.UnreachableValues, total.ConstantValues, total.Classes, passes)
	}
	fmt.Println("\nreading guide: more unreachable/constant values is stronger; fewer")
	fmt.Println("classes is stronger; balanced buys most of the strength at a fraction")
	fmt.Println("of the passes — the paper's central scalability claim.")
}
