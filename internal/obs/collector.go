package obs

import (
	"sort"
	"sync"
)

// Collector hands out one Tracer per routine of a batch and reassembles
// the streams in routine-index order. The per-routine split is what makes
// concurrent tracing deterministic: each worker writes only its own
// tracer, and Export orders streams by index, so the exported trace is
// independent of the schedule (timestamps aside — disable them with
// SetTimestamps(false) for byte-identical captures).
//
// A nil *Collector is a valid no-op: Tracer returns nil, which is itself
// the no-op tracer.
type Collector struct {
	mu         sync.Mutex
	capacity   int
	timestamps bool
	set        bool // timestamps explicitly configured
	tracers    map[int]*Tracer
}

// NewCollector returns a collector whose tracers hold the last capacity
// events each (capacity <= 0 selects DefaultCapacity).
func NewCollector(capacity int) *Collector {
	return &Collector{capacity: capacity, tracers: make(map[int]*Tracer)}
}

// SetTimestamps configures whether tracers created from now on record
// wall-clock timestamps (they do by default). With timestamps off,
// Event.T is always 0 and the streams are byte-identical across runs.
//
//pgvn:allow unreachable: the driver's trace determinism and golden tests and the root package's tracing benchmarks capture streams without wall-clock time
func (c *Collector) SetTimestamps(on bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.timestamps, c.set = on, true
	c.mu.Unlock()
}

// Tracer returns the tracer for routine index, creating it on first use.
// Safe on a nil receiver (returns the nil no-op tracer). Safe for
// concurrent callers; the returned tracer itself is single-goroutine.
func (c *Collector) Tracer(index int, routine string) *Tracer {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.tracers[index]
	if t == nil {
		t = NewTracer(c.capacity)
		if c.set {
			t.timestamps = c.timestamps
		}
		c.tracers[index] = t
	}
	t.SetName(index, routine)
	return t
}

// RoutineEvents is one routine's exported stream.
type RoutineEvents struct {
	// Index is the routine's batch position; Routine its name.
	Index   int
	Routine string
	// Span is the distributed-trace span enclosing this routine's
	// events (zero when the batch ran untraced).
	Span SpanContext
	// Dropped counts events the full ring overwrote; Emitted the total
	// emissions (Dropped + len(Events) when nothing else truncated).
	Dropped int
	Emitted int
	// Events is the retained stream, oldest first.
	Events []Event
}

// Export snapshots every routine's stream, ordered by routine index.
func (c *Collector) Export() []RoutineEvents {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]RoutineEvents, 0, len(c.tracers))
	for _, t := range c.tracers {
		idx, name := t.Name()
		out = append(out, RoutineEvents{
			Index:   idx,
			Routine: name,
			Span:    t.Span(),
			Dropped: t.Dropped(),
			Emitted: t.Emitted(),
			Events:  t.Events(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}
