// Package obs is the observability layer of the pipeline: a low-overhead
// ring-buffered event tracer recording the sparse fixpoint's life
// (TOUCHED pushes, class merges, predicate/value inferences,
// φ-predication decisions, reachability flips, opt rewrites), a metrics
// registry (counters, gauges, histograms) with a stable JSON snapshot
// format, and HTTP serving hooks (/metrics, /progress, /debug/pprof/*).
//
// The package is deliberately a leaf: it depends only on the standard
// library and speaks in integer IDs (routine index, block ID, instruction
// ID), so every layer — core, opt, driver, harness, the cmds — can emit
// into it without import cycles. A nil *Tracer and a nil *Registry are
// valid no-op receivers, so instrumented code pays one pointer test when
// observability is off.
package obs

import (
	"time"
)

// Kind classifies one traced event of the pipeline.
type Kind uint8

// Event kinds. The fixpoint kinds mirror the paper's vocabulary: TOUCHED
// pushes (§2.1), congruence-class moves (Figure 4), edge/block
// reachability and edge predicates (Figure 5), predicate and value
// inference (Figure 7), φ-predication (Figure 8). The opt kinds record
// the rewrites that consume the partition, and the stage kinds frame the
// driver pipeline (parse → ssa → gvn → check → opt).
const (
	KindNone Kind = iota
	// KindPassStart / KindPassEnd bracket one RPO pass of the fixpoint;
	// KindPassEnd's Arg is the TOUCHED count left when the pass ended.
	KindPassStart
	KindPassEnd
	// KindTouchInstr / KindTouchBlock are deduplicated TOUCHED pushes.
	KindTouchInstr
	KindTouchBlock
	// KindEval is one symbolic evaluation; Note is the resulting
	// expression key.
	KindEval
	// KindClassNew: the value founded a fresh congruence class (Note is
	// the class expression key).
	KindClassNew
	// KindClassJoin: the value moved into an existing class; Arg is the
	// class leader's instruction ID, Note the class expression key.
	KindClassJoin
	// KindLeaderChange: a class lost its leader and elected a new one
	// (Instr); Arg is the departing member's instruction ID.
	KindLeaderChange
	// KindConst: the value was proven congruent to the constant Arg.
	KindConst
	// KindBlockReach / KindEdgeReach are reachability flips; for edges,
	// Block is the source and Arg the destination block ID.
	KindBlockReach
	KindEdgeReach
	// KindEdgePred: the predicate of the Block→Arg edge changed to Note
	// ("" when cleared).
	KindEdgePred
	// KindPredInfer: predicate inference decided the predicate Note to
	// the constant Arg while evaluating instruction Instr in Block.
	KindPredInfer
	// KindValueInfer: value inference replaced instruction Instr's
	// operand leader with the lower-ranking value Arg.
	KindValueInfer
	// KindPhiPred: φ-predication computed block predicate Note for Block
	// ("" when the predicate was cleared or nullified).
	KindPhiPred
	// Opt rewrites: constant materialized for Instr (Arg is the
	// constant), uses of Instr redirected to leader Arg, unreachable
	// Block deleted, and the aggregate dead-instruction / CFG-merge
	// counts (Arg).
	KindOptConst
	KindOptRedundant
	KindOptBlockRemoved
	KindOptDeadCode
	KindOptCFGSimplified
	// KindStageStart / KindStageEnd bracket one driver pipeline stage
	// (Note: "ssa", "gvn", "opt", "check-…"); KindStageEnd's Arg is the
	// stage duration in nanoseconds.
	KindStageStart
	KindStageEnd
	// KindCacheHit: the driver served this routine from the
	// content-addressed cache; no fixpoint events follow.
	KindCacheHit
	// GVN-PRE rewrites (appended after KindCacheHit to keep earlier kind
	// values stable): an evaluation inserted on a predecessor edge (Instr
	// is the new instruction, Block its home, Note the class expression
	// key), a φ created at a merge over the now-available copies (Arg is
	// the number of members it replaced), a partially redundant
	// instruction's uses redirected to the φ (Arg is the φ's ID), and a
	// critical edge split (Block is the new block, Arg the edge's source
	// block ID).
	KindOptPREInsert
	KindOptPREPhi
	KindOptPRERemove
	KindOptPREEdgeSplit
)

var kindNames = [...]string{
	KindNone:             "none",
	KindPassStart:        "pass-start",
	KindPassEnd:          "pass-end",
	KindTouchInstr:       "touch-instr",
	KindTouchBlock:       "touch-block",
	KindEval:             "eval",
	KindClassNew:         "class-new",
	KindClassJoin:        "class-join",
	KindLeaderChange:     "leader-change",
	KindConst:            "const",
	KindBlockReach:       "block-reach",
	KindEdgeReach:        "edge-reach",
	KindEdgePred:         "edge-pred",
	KindPredInfer:        "pred-infer",
	KindValueInfer:       "value-infer",
	KindPhiPred:          "phi-pred",
	KindOptConst:         "opt-const",
	KindOptRedundant:     "opt-redundant",
	KindOptBlockRemoved:  "opt-block-removed",
	KindOptDeadCode:      "opt-dead-code",
	KindOptCFGSimplified: "opt-cfg-simplified",
	KindStageStart:       "stage-start",
	KindStageEnd:         "stage-end",
	KindCacheHit:         "cache-hit",
	KindOptPREInsert:     "opt-pre-insert",
	KindOptPREPhi:        "opt-pre-phi",
	KindOptPRERemove:     "opt-pre-remove",
	KindOptPREEdgeSplit:  "opt-pre-edge-split",
}

// String names the kind ("class-join", "pred-infer", …).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one record of the trace. Fields not meaningful for a kind are
// -1 (Block, Instr) or zero values; the per-kind meanings are documented
// on the Kind constants. Routine identity lives on the Tracer, not the
// event, so the hot path never carries strings it does not need.
type Event struct {
	// Seq is the per-routine emission index (0, 1, 2, …). It counts
	// every emission, including events a full ring buffer dropped, so
	// gaps in an exported stream reveal overflow.
	Seq int
	// T is nanoseconds since the tracer started (0 when timestamps are
	// disabled for deterministic capture).
	T int64
	// Kind classifies the event.
	Kind Kind
	// Pass is the fixpoint pass during which the event fired (0 outside
	// the fixpoint).
	Pass int
	// Block and Instr attribute the event (-1 when not applicable).
	Block int
	Instr int
	// Arg is the kind-specific scalar payload.
	Arg int64
	// Note is the kind-specific label (an expression key, a stage name).
	Note string
}

// DefaultCapacity is the ring size NewTracer uses for capacity <= 0:
// large enough to hold every event of any corpus routine, small enough
// that a 1000-routine batch stays in tens of megabytes.
const DefaultCapacity = 1 << 14

// Tracer records the event stream of ONE routine's trip through the
// pipeline into a ring buffer: when the buffer is full the oldest events
// are overwritten and Dropped counts them. A nil *Tracer is a valid
// no-op — every method short-circuits — which is the "tracing off" fast
// path the hot loops rely on.
//
// A Tracer is not safe for concurrent use; the driver hands each worker
// its own per-routine tracer (see Collector) and reads them back only
// after the batch barrier.
type Tracer struct {
	routine string
	index   int
	span    SpanContext

	capacity int // ring limit; 0 marks a sink-only tracer
	buf      []Event
	next     int // next write slot
	full     bool
	seq      int
	dropped  int

	start      time.Time
	timestamps bool
	sink       func(Event)
}

// NewTracer returns a ring-buffered tracer holding the last capacity
// events (capacity <= 0 selects DefaultCapacity). The buffer grows on
// demand up to capacity, so short streams — most routines of a batch —
// never pay for the full ring. Timestamps are on.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{
		capacity:   capacity,
		start:      time.Now(),
		timestamps: true,
	}
}

// NewSinkTracer returns a tracer that buffers nothing: every event is
// handed to fn as it is emitted. It backs the PGVN_DEBUG stderr text
// sink.
func NewSinkTracer(fn func(Event)) *Tracer {
	return &Tracer{start: time.Now(), timestamps: true, sink: fn}
}

// SetName attributes the tracer to a routine (Index is the routine's
// batch position; the exporters order streams by it).
func (t *Tracer) SetName(index int, routine string) {
	if t == nil {
		return
	}
	t.index, t.routine = index, routine
}

// SetSpan links the tracer to its enclosing distributed-trace span, so
// exported event streams (and the -explain replay built on them) carry
// the (trace id, span id) of the request that produced them.
func (t *Tracer) SetSpan(sc SpanContext) {
	if t == nil {
		return
	}
	t.span = sc
}

// Span returns the linked span context (zero when the batch ran
// untraced).
func (t *Tracer) Span() SpanContext {
	if t == nil {
		return SpanContext{}
	}
	return t.span
}

// Name returns the routine attribution (index, name).
func (t *Tracer) Name() (int, string) {
	if t == nil {
		return 0, ""
	}
	return t.index, t.routine
}

// Emit records one event. Safe on a nil receiver (no-op). Callers pay
// for Note construction, so expensive labels should be built only after
// checking the tracer is non-nil.
func (t *Tracer) Emit(k Kind, pass, block, instr int, arg int64, note string) {
	if t == nil {
		return
	}
	e := Event{
		Seq:   t.seq,
		Kind:  k,
		Pass:  pass,
		Block: block,
		Instr: instr,
		Arg:   arg,
		Note:  note,
	}
	if t.timestamps {
		e.T = int64(time.Since(t.start))
	}
	t.seq++
	if t.sink != nil {
		t.sink(e)
	}
	if t.capacity == 0 {
		return // sink-only tracer
	}
	if len(t.buf) < t.capacity {
		if len(t.buf) == cap(t.buf) {
			// Grow geometrically but never past the ring limit: Go's own
			// append growth would overshoot it for large rings.
			grown := 2 * cap(t.buf)
			if grown == 0 {
				grown = 64
			}
			if grown > t.capacity {
				grown = t.capacity
			}
			nb := make([]Event, len(t.buf), grown)
			copy(nb, t.buf)
			t.buf = nb
		}
		t.buf = append(t.buf, e)
		return
	}
	// Ring is full: overwrite the oldest slot.
	t.buf[t.next] = e
	t.next++
	if t.next == t.capacity {
		t.next = 0
	}
	t.full = true
	t.dropped++
}

// Events returns the buffered events oldest-first. The slice is a copy;
// the tracer may keep recording.
func (t *Tracer) Events() []Event {
	if t == nil || len(t.buf) == 0 {
		return nil
	}
	if !t.full {
		return append([]Event(nil), t.buf...)
	}
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// Len reports how many events are buffered; Dropped how many the full
// ring overwrote; Emitted how many were emitted in total.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.buf)
}

// Dropped reports how many events the full ring overwrote.
func (t *Tracer) Dropped() int {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Emitted reports the total number of Emit calls.
func (t *Tracer) Emitted() int {
	if t == nil {
		return 0
	}
	return t.seq
}
