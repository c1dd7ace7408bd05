package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"pgvn/internal/ir"
	"pgvn/internal/server"
	"pgvn/internal/workload"
)

// specProfile mirrors one row of internal/workload's SPEC CINT2000 table
// (the paper's Table 1): routines at scale 1, mean statements per routine
// and maximum loop depth. workload.Corpus always draws the same seeds; the
// mirror keeps its shapes but seeds every routine from -seed.
type specProfile struct {
	name                   string
	routines, stmts, loops int
}

var specProfiles = []specProfile{
	{"b164_gzip", 9, 30, 2},
	{"b175_vpr", 17, 30, 2},
	{"b176_gcc", 280, 35, 2},
	{"b181_mcf", 3, 25, 2},
	{"b186_crafty", 34, 35, 2},
	{"b197_parser", 20, 30, 2},
	{"b253_perlbmk", 110, 35, 2},
	{"b254_gap", 115, 33, 2},
	{"b255_vortex", 58, 32, 1},
	{"b300_twolf", 40, 33, 2},
}

// seedFor hashes the run seed and a routine's coordinates (FNV-1a) into
// the routine's generator seed, so every input is a function of -seed.
func seedFor(seed int64, coords ...int) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	for _, c := range coords {
		binary.LittleEndian.PutUint64(b[:], uint64(c))
		h.Write(b[:])
	}
	return int64(h.Sum64() >> 1)
}

// specRoutine generates routine k shaped like profile p of the corpus:
// sizes vary around the profile mean exactly as workload.Corpus varies
// them, so the size mix is the same for every seed and only the content
// changes.
func specRoutine(name string, seed int64, p specProfile, k int) *ir.Routine {
	return workload.Generate(name, workload.GenConfig{
		Seed:         seed,
		Stmts:        p.stmts/2 + (k*13)%(p.stmts+10),
		Params:       1 + k%4,
		MaxLoopDepth: p.loops,
	})
}

// preRoutine generates routine k of the GVN-PRE family, shaped like
// workload.PartialRedundancy.
func preRoutine(name string, seed int64, k int) *ir.Routine {
	return workload.Generate(name, workload.GenConfig{
		Seed:              seed,
		Stmts:             14 + (k*11)%20,
		Params:            1 + k%4,
		MaxLoopDepth:      2,
		PartialRedundancy: true,
	})
}

// specUnit renders the SPEC-shaped suite as one compilation unit in the
// surface syntax the parser reads: 686 routines (≈2.4 MB) at scale 1.
func specUnit(seed int64, scale float64) string {
	var sb strings.Builder
	for pi, p := range specProfiles {
		n := max(1, int(float64(p.routines)*scale+0.5))
		for k := 0; k < n; k++ {
			if sb.Len() > 0 {
				sb.WriteString("\n")
			}
			name := fmt.Sprintf("%s_r%d", p.name, k)
			sb.WriteString(workload.SourceText(specRoutine(name, seedFor(seed, pi, k), p, k)))
		}
	}
	return sb.String()
}

// unit is one serving request: a compilation unit of 1–4 routines and the
// encoded POST /v1/optimize body that carries it.
type unit struct {
	src      string
	routines int
	pre      bool // the request turns GVN-PRE on
	body     []byte
}

// newUnit generates unit i. Its routine count (1 + i%4) and shapes
// depend only on i, so the popularity-weighted size mix of a Zipf draw is
// the same for every seed. preFamily draws the routines from the GVN-PRE
// family instead of the SPEC profiles; pre sets the request's "pre" flag.
func newUnit(seed int64, i int, preFamily, pre bool) *unit {
	u := &unit{routines: 1 + i%4, pre: pre}
	var sb strings.Builder
	for j := 0; j < u.routines; j++ {
		k := 4*i + j
		name := fmt.Sprintf("u%d_r%d", i, j)
		var r *ir.Routine
		if preFamily {
			r = preRoutine(name, seedFor(seed, -1, i, j), k)
		} else {
			pi := k % len(specProfiles)
			r = specRoutine(name, seedFor(seed, pi, i, j), specProfiles[pi], k)
		}
		if j > 0 {
			sb.WriteString("\n")
		}
		sb.WriteString(workload.SourceText(r))
	}
	u.src = sb.String()
	body, err := json.Marshal(server.OptimizeRequest{Source: u.src, PRE: pre})
	if err != nil {
		panic(err) // a struct of strings and bools always marshals
	}
	u.body = body
	return u
}

// zipfSequence draws n unit indices in [0, units) with Zipf(1.1)
// popularity: index 0 is the most requested.
func zipfSequence(seed int64, n, units int) []int {
	z := rand.NewZipf(rand.New(rand.NewSource(seedFor(seed, -2))), 1.1, 1, uint64(units-1))
	seq := make([]int, n)
	for i := range seq {
		seq[i] = int(z.Uint64())
	}
	return seq
}
