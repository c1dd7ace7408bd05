package obs

import (
	"encoding/json"
	"io"
	"math"
	"math/bits"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// Registry is a concurrency-safe metrics registry: named counters,
// gauges and histograms. Instruments are created on first use and live
// for the registry's lifetime, so callers can hold them or re-look them
// up by name — both are cheap. A nil *Registry is a valid no-op: every
// lookup returns a nil instrument whose methods do nothing, which is the
// "metrics off" fast path.
//
// Snapshot produces the stable JSON form that the BENCH_*.json
// trajectory and the /metrics endpoint serve: encoding/json renders map
// keys sorted, so two snapshots of equal state are byte-identical.
type Registry struct {
	mu        sync.Mutex
	counters  map[string]*Counter
	gauges    map[string]*Gauge
	hists     map[string]*Histogram
	exemplars map[string]*Exemplars
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:  make(map[string]*Counter),
		gauges:    make(map[string]*Gauge),
		hists:     make(map[string]*Histogram),
		exemplars: make(map[string]*Exemplars),
	}
}

// Counter is a monotonically increasing sum.
type Counter struct{ v atomic.Int64 }

// Add increments the counter; safe on a nil receiver.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-write-wins level.
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge value; safe on a nil receiver.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add moves the gauge by n.
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value reads the gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the bucket count of a Histogram: bucket i counts
// observations whose value has bit length i (i.e. in [2^(i-1), 2^i)),
// an exponential layout that covers nanosecond latencies through hours
// with no configuration.
const histBuckets = 64

// Histogram accumulates an exponential-bucket distribution of int64
// observations (negative observations clamp to 0).
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // valid when count > 0
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// newHistogram seeds min/max with sentinels so Observe's CAS loops need
// no first-observation special case (which would race).
func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// Observe records one value; safe on a nil receiver.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// MaxExemplars bounds how many slowest observations an Exemplars
// instrument retains: enough to name the traces worth reading, small
// enough that snapshots stay skimmable.
const MaxExemplars = 4

// Exemplar is one retained observation: the value and the trace it
// came from — the pointer from an aggregate histogram back to a
// concrete /v1/trace/{id} worth reading.
type Exemplar struct {
	Value   int64  `json:"value"`
	TraceID string `json:"trace_id"`
}

// Exemplars retains the top-MaxExemplars slowest observations by
// value, deduplicated by trace id (one trace appears once, at its
// worst value). Nil-safe like every other instrument: observing into a
// nil *Exemplars is the "tracing off" no-op.
type Exemplars struct {
	mu  sync.Mutex
	top []Exemplar // descending by Value, ties ascending by TraceID
}

// Observe offers one (value, trace id) pair; untraced observations
// (empty trace id) are ignored — an exemplar that points nowhere is
// noise.
func (e *Exemplars) Observe(v int64, traceID string) {
	if e == nil || traceID == "" {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range e.top {
		if e.top[i].TraceID == traceID {
			if v <= e.top[i].Value {
				return
			}
			e.top = append(e.top[:i], e.top[i+1:]...)
			break
		}
	}
	at := len(e.top)
	for i := range e.top {
		if v > e.top[i].Value || (v == e.top[i].Value && traceID < e.top[i].TraceID) {
			at = i
			break
		}
	}
	if at >= MaxExemplars {
		return
	}
	e.top = append(e.top, Exemplar{})
	copy(e.top[at+1:], e.top[at:])
	e.top[at] = Exemplar{Value: v, TraceID: traceID}
	if len(e.top) > MaxExemplars {
		e.top = e.top[:MaxExemplars]
	}
}

// Snapshot copies the retained exemplars, slowest first.
func (e *Exemplars) Snapshot() []Exemplar {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.top) == 0 {
		return nil
	}
	return append([]Exemplar(nil), e.top...)
}

// Counter returns (creating if needed) the named counter; nil registry
// returns the nil no-op counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram()
		r.hists[name] = h
	}
	return h
}

// Exemplars returns (creating if needed) the named exemplar set; by
// convention it shares its name with the latency histogram whose
// slowest observations it annotates.
func (r *Registry) Exemplars(name string) *Exemplars {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.exemplars[name]
	if e == nil {
		e = &Exemplars{}
		r.exemplars[name] = e
	}
	return e
}

// SnapshotSchema identifies the snapshot wire format; bump on
// incompatible changes so trajectory consumers can dispatch. v2 added
// the "env" block (toolchain and host metadata) so perf trajectories
// recorded on different machines can be compared apples-to-apples. v3
// added the harness.sweep_allocs_per_op and harness.sweep_bytes_per_op
// histograms (per-routine allocation cost of the analysis pipeline,
// measured by an untimed pass after each timing sweep). v4 added the
// cluster.* instruments (hot-tier hits/misses/evictions, peer-fill and
// peer-serve outcomes, ring membership transitions) emitted by gvnd
// fleet mode. v5 added the trace.* instruments (spans
// started/finished/dropped, trace-assembly fan-out latency and peer
// errors) and the "exemplars" block: latency histograms may carry the
// trace ids of their slowest observations, pointing an operator from an
// aggregate straight at a /v1/trace/{id} worth reading.
const SnapshotSchema = "pgvn-metrics/v5"

// EnvMeta describes the toolchain and host a snapshot was taken on.
// It is embedded as the snapshot's "env" block: two BENCH_*.json files
// with different env blocks are not directly comparable timings.
func EnvMeta() map[string]string {
	return map[string]string{
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"numcpu":     strconv.Itoa(runtime.NumCPU()),
	}
}

// HistogramSnapshot is the JSON form of one histogram. Buckets maps the
// bucket's upper bound rendered as a decimal string ("4096") to its
// count; empty buckets are omitted.
type HistogramSnapshot struct {
	Count   int64            `json:"count"`
	Sum     int64            `json:"sum"`
	Min     int64            `json:"min"`
	Max     int64            `json:"max"`
	Mean    float64          `json:"mean"`
	Buckets map[string]int64 `json:"buckets,omitempty"`
}

// Snapshot is the stable JSON form of a registry: the schema tag, an
// optional caller-supplied metadata block (label, corpus scale, …), and
// the instruments by sorted name.
type Snapshot struct {
	Schema     string                       `json:"schema"`
	Meta       map[string]string            `json:"meta,omitempty"`
	Env        map[string]string            `json:"env,omitempty"`
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Exemplars  map[string][]Exemplar        `json:"exemplars,omitempty"`
}

// Snapshot captures the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Schema: SnapshotSchema}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			hs := HistogramSnapshot{
				Count: h.count.Load(),
				Sum:   h.sum.Load(),
			}
			if hs.Count > 0 {
				hs.Min = h.min.Load()
				hs.Max = h.max.Load()
				hs.Mean = float64(hs.Sum) / float64(hs.Count)
				hs.Buckets = make(map[string]int64)
				for i := range h.buckets {
					if n := h.buckets[i].Load(); n > 0 {
						hs.Buckets[bucketLabel(i)] = n
					}
				}
			}
			s.Histograms[name] = hs
		}
	}
	for name, e := range r.exemplars {
		if ex := e.Snapshot(); len(ex) > 0 {
			if s.Exemplars == nil {
				s.Exemplars = make(map[string][]Exemplar)
			}
			s.Exemplars[name] = ex
		}
	}
	return s
}

// bucketLabel renders bucket i's upper bound (2^i, with bucket 0 = "0").
func bucketLabel(i int) string {
	if i == 0 {
		return "0"
	}
	// 2^63 overflows int64; label the top bucket "inf".
	if i >= 63 {
		return "inf"
	}
	return strconv.FormatInt(int64(1)<<i, 10)
}

// WriteJSON writes the snapshot (with optional metadata) as indented
// JSON. encoding/json sorts map keys, so equal states render
// byte-identically — the property the BENCH trajectory and golden tests
// rely on.
func (r *Registry) WriteJSON(w io.Writer, meta map[string]string) error {
	s := r.Snapshot()
	s.Meta = meta
	s.Env = EnvMeta()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
