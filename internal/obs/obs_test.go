package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestNilReceiversAreNoOps(t *testing.T) {
	var tr *Tracer
	tr.Emit(KindEval, 1, 2, 3, 4, "x") // must not panic
	tr.SetName(1, "r")
	if tr.Events() != nil || tr.Len() != 0 || tr.Dropped() != 0 || tr.Emitted() != 0 {
		t.Errorf("nil tracer not empty")
	}
	var reg *Registry
	reg.Counter("c").Add(1)
	reg.Gauge("g").Set(1)
	reg.Histogram("h").Observe(1)
	if got := reg.Counter("c").Value(); got != 0 {
		t.Errorf("nil registry counter = %d", got)
	}
	s := reg.Snapshot()
	if s.Schema != SnapshotSchema || s.Counters != nil {
		t.Errorf("nil registry snapshot = %+v", s)
	}
	var col *Collector
	if col.Tracer(0, "r") != nil {
		t.Errorf("nil collector returned a tracer")
	}
	if col.Export() != nil {
		t.Errorf("nil collector exported streams")
	}
}

func TestTracerRecordsInOrder(t *testing.T) {
	tr := NewTracer(16)
	tr.timestamps = false
	tr.Emit(KindPassStart, 1, -1, -1, 0, "")
	tr.Emit(KindEval, 1, 2, 7, 0, "add(v1,v2)")
	tr.Emit(KindPassEnd, 1, -1, -1, 3, "")
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	for k, e := range evs {
		if e.Seq != k {
			t.Errorf("event %d has seq %d", k, e.Seq)
		}
		if e.T != 0 {
			t.Errorf("timestamps off but event %d has T=%d", k, e.T)
		}
	}
	if evs[1].Kind != KindEval || evs[1].Block != 2 || evs[1].Instr != 7 || evs[1].Note != "add(v1,v2)" {
		t.Errorf("eval event mangled: %+v", evs[1])
	}
}

func TestTracerRingOverflow(t *testing.T) {
	tr := NewTracer(4)
	tr.timestamps = false
	for i := 0; i < 10; i++ {
		tr.Emit(KindEval, 0, -1, i, 0, "")
	}
	if tr.Len() != 4 {
		t.Errorf("Len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 6 {
		t.Errorf("Dropped = %d, want 6", tr.Dropped())
	}
	if tr.Emitted() != 10 {
		t.Errorf("Emitted = %d, want 10", tr.Emitted())
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d buffered events", len(evs))
	}
	// Oldest-first: the survivors are seqs 6..9.
	for k, e := range evs {
		if e.Seq != 6+k {
			t.Errorf("survivor %d has seq %d, want %d", k, e.Seq, 6+k)
		}
		if e.Instr != 6+k {
			t.Errorf("survivor %d carries instr %d, want %d", k, e.Instr, 6+k)
		}
	}
}

func TestSinkTracerBuffersNothing(t *testing.T) {
	var got []Event
	tr := NewSinkTracer(func(e Event) { got = append(got, e) })
	tr.Emit(KindConst, 1, 2, 3, 42, "")
	tr.Emit(KindConst, 1, 2, 4, 43, "")
	if len(got) != 2 || got[1].Arg != 43 {
		t.Fatalf("sink received %+v", got)
	}
	if tr.Len() != 0 {
		t.Errorf("sink tracer buffered %d events", tr.Len())
	}
}

func TestFormatEvent(t *testing.T) {
	e := Event{Seq: 5, Kind: KindClassJoin, Pass: 2, Block: 3, Instr: 7, Arg: 1, Note: "c1"}
	s := FormatEvent("R", e)
	for _, want := range []string{"R", "pass 2", "class-join", "instr=7", "note=c1"} {
		if !strings.Contains(s, want) {
			t.Errorf("FormatEvent = %q, missing %q", s, want)
		}
	}
}

func TestCollectorExportOrdersByIndex(t *testing.T) {
	col := NewCollector(8)
	col.SetTimestamps(false)
	// Hand out tracers out of order, as a racing pool would.
	t2 := col.Tracer(2, "c")
	t0 := col.Tracer(0, "a")
	t1 := col.Tracer(1, "b")
	t1.Emit(KindEval, 1, 0, 0, 0, "")
	t0.Emit(KindEval, 1, 0, 0, 0, "")
	t2.Emit(KindEval, 1, 0, 0, 0, "")
	// Same index returns the same tracer.
	if col.Tracer(1, "b") != t1 {
		t.Errorf("collector minted a second tracer for index 1")
	}
	streams := col.Export()
	if len(streams) != 3 {
		t.Fatalf("got %d streams", len(streams))
	}
	for k, rs := range streams {
		if rs.Index != k {
			t.Errorf("stream %d has index %d", k, rs.Index)
		}
	}
	if streams[0].Routine != "a" || streams[2].Routine != "c" {
		t.Errorf("routine names scrambled: %v %v", streams[0].Routine, streams[2].Routine)
	}
}

func TestMetricsInstruments(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c").Add(3)
	reg.Counter("c").Inc()
	if got := reg.Counter("c").Value(); got != 4 {
		t.Errorf("counter = %d, want 4", got)
	}
	reg.Gauge("g").Set(10)
	reg.Gauge("g").Add(-3)
	if got := reg.Gauge("g").Value(); got != 7 {
		t.Errorf("gauge = %d, want 7", got)
	}
	h := reg.Histogram("h")
	for _, v := range []int64{1, 5, 100, -2} { // negative clamps to 0
		h.Observe(v)
	}
	s := reg.Snapshot()
	hs := s.Histograms["h"]
	if hs.Count != 4 || hs.Sum != 106 {
		t.Errorf("histogram count/sum = %d/%d", hs.Count, hs.Sum)
	}
	if hs.Min != 0 || hs.Max != 100 {
		t.Errorf("histogram min/max = %d/%d, want 0/100", hs.Min, hs.Max)
	}
}

func TestSnapshotJSONIsStable(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("z.last").Add(1)
	reg.Counter("a.first").Add(2)
	reg.Gauge("g").Set(5)
	reg.Histogram("h").Observe(7)
	var b1, b2 bytes.Buffer
	meta := map[string]string{"label": "test"}
	if err := reg.WriteJSON(&b1, meta); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteJSON(&b2, meta); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Errorf("equal registry states rendered differently:\n%s\n---\n%s", b1.String(), b2.String())
	}
	var s Snapshot
	if err := json.Unmarshal(b1.Bytes(), &s); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if s.Schema != SnapshotSchema || s.Counters["a.first"] != 2 || s.Meta["label"] != "test" {
		t.Errorf("roundtrip mangled snapshot: %+v", s)
	}
}

func testStreams() []RoutineEvents {
	tr := NewTracer(32)
	tr.SetName(0, "R")
	tr.timestamps = false
	tr.Emit(KindPassStart, 1, -1, -1, 0, "")
	tr.Emit(KindEval, 1, 2, 7, 0, "c1")
	tr.Emit(KindClassJoin, 1, 2, 7, 3, "c1")
	tr.Emit(KindConst, 1, 2, 7, 1, "")
	tr.Emit(KindPassEnd, 1, -1, -1, 0, "")
	return []RoutineEvents{{
		Index: 0, Routine: "R",
		Dropped: tr.Dropped(), Emitted: tr.Emitted(), Events: tr.Events(),
	}}
}

func TestWriteJSONL(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, testStreams()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines, want 5", len(lines))
	}
	for k, line := range lines {
		var e map[string]any
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("line %d is not JSON: %v", k, err)
		}
		if e["routine"] != "R" {
			t.Errorf("line %d routine = %v", k, e["routine"])
		}
	}
	var mid map[string]any
	_ = json.Unmarshal([]byte(lines[2]), &mid)
	if mid["kind"] != "class-join" || mid["arg"] != float64(3) {
		t.Errorf("class-join line mangled: %v", mid)
	}
}

func TestWriteChromeTraceIsValidAndBalanced(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, testStreams(), ChromeOptions{LogicalTime: true}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	var begins, ends, instants, meta int
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "B":
			begins++
		case "E":
			ends++
		case "i":
			instants++
		case "M":
			meta++
		}
	}
	if begins != ends {
		t.Errorf("unbalanced durations: %d B vs %d E", begins, ends)
	}
	if meta != 1 {
		t.Errorf("want 1 thread_name metadata event, got %d", meta)
	}
	if instants != 3 {
		t.Errorf("want 3 instants, got %d", instants)
	}
}

func TestChromeTraceClosesDanglingPass(t *testing.T) {
	tr := NewTracer(8)
	tr.timestamps = false
	tr.Emit(KindPassStart, 1, -1, -1, 0, "")
	tr.Emit(KindEval, 1, 0, 0, 0, "x")
	streams := []RoutineEvents{{Index: 0, Routine: "R", Events: tr.Events()}}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, streams, ChromeOptions{LogicalTime: true}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var begins, ends int
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "B":
			begins++
		case "E":
			ends++
		}
	}
	if begins != 1 || ends != 1 {
		t.Errorf("dangling pass not closed: %d B vs %d E", begins, ends)
	}
}

func TestExplainValue(t *testing.T) {
	streams := testStreams()
	names := Names{
		ValueName: func(id int) string {
			return map[int]string{3: "X", 7: "Y"}[id]
		},
		BlockName: func(id int) string { return "" }, // fall back to block<N>
	}
	lines := ExplainValue(streams[0], 7, names)
	if len(lines) != 3 {
		t.Fatalf("got %d lines: %v", len(lines), lines)
	}
	if !strings.Contains(lines[0], "evaluated to c1") {
		t.Errorf("line 0 = %q", lines[0])
	}
	if !strings.Contains(lines[1], "joined the class of X") {
		t.Errorf("line 1 = %q", lines[1])
	}
	if !strings.Contains(lines[2], "constant 1") {
		t.Errorf("line 2 = %q", lines[2])
	}
	// The leader's perspective: Y joined X's class.
	lines = ExplainValue(streams[0], 3, names)
	if len(lines) != 1 || !strings.Contains(lines[0], "Y joined this value's class") {
		t.Errorf("leader chain = %v", lines)
	}
	// Overflow warning.
	over := streams[0]
	over.Dropped = 9
	lines = ExplainValue(over, 7, names)
	if !strings.Contains(lines[len(lines)-1], "overflowed") {
		t.Errorf("no overflow warning in %v", lines)
	}
}

func TestServeEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test.counter").Add(7)
	reg.Gauge("driver.batch.total").Set(5)
	reg.Gauge("driver.batch.done").Set(3)
	srv, err := Serve("127.0.0.1:0", ServerConfig{
		Registry: reg,
		Progress: RegistryProgress(reg),
		Meta:     map[string]string{"cmd": "test"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) []byte {
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var snap Snapshot
	if err := json.Unmarshal(get("/metrics"), &snap); err != nil {
		t.Fatalf("/metrics not JSON: %v", err)
	}
	if snap.Counters["test.counter"] != 7 || snap.Meta["cmd"] != "test" {
		t.Errorf("/metrics = %+v", snap)
	}
	var prog Progress
	if err := json.Unmarshal(get("/progress"), &prog); err != nil {
		t.Fatalf("/progress not JSON: %v", err)
	}
	if prog.Total != 5 || prog.Done != 3 {
		t.Errorf("/progress = %+v", prog)
	}
	if body := get("/debug/pprof/cmdline"); len(body) == 0 {
		t.Errorf("/debug/pprof/cmdline empty")
	}
}
