package main

import (
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// percentile reads the q-quantile of xs by nearest rank (xs need not be
// sorted; it is sorted in place).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(xs, n=4) (the "exclusive" method), the form the
// spread rule is stated in; the middle one is the median. xs is sorted in
// place and needs two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	slices.Sort(xs)
	n := len(xs)
	m := n + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB is the process's peak resident set size so far. Each
// workload runs in a fresh process and reads it when its measured loop
// ends, so it is the workload's own peak, setup included and the
// correctness checks after it excluded.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeSnapshot holds the cumulative runtime counters the per-layer
// runtime metrics are deltas of.
type runtimeSnapshot struct {
	at              time.Time
	allocBytes      uint64
	gcCPU, totalCPU float64
}

func readRuntime() runtimeSnapshot {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSnapshot{
		at:         time.Now(),
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}

// runtimeUse sums the runtime counters over measured intervals only, so
// the collections freshHeap forces between iterations stay out.
type runtimeUse struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
	wall            time.Duration
}

func (u *runtimeUse) add(from, to runtimeSnapshot) {
	u.allocBytes += to.allocBytes - from.allocBytes
	u.gcCPU += to.gcCPU - from.gcCPU
	u.totalCPU += to.totalCPU - from.totalCPU
	u.wall += to.at.Sub(from.at)
}

// report sets runtime.gc_cpu_frac, the GC's share of the CPU time the
// runtime accounted, and runtime.alloc_mb_per_s.
func (u runtimeUse) report(r *run) {
	gcFrac := 0.0
	if u.totalCPU > 0 {
		gcFrac = u.gcCPU / u.totalCPU
	}
	r.set("runtime.gc_cpu_frac", gcFrac, "frac")
	r.set("runtime.alloc_mb_per_s", float64(u.allocBytes)/1e6/u.wall.Seconds(), "MB/s")
}

// freshHeap collects twice, which empties every sync.Pool, before each
// closed-loop iteration. core.Run's pooled analysis scratch otherwise
// keeps every expression it ever interned reachable (the live heap grows
// by about 26 KB per routine analyzed), so a closed loop would measure a
// heap that grows for the whole run, where a compile starts from a fresh
// process. Serving workloads keep the growth: gvnd is long-lived.
func freshHeap() {
	runtime.GC()
	runtime.GC()
}
