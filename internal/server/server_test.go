package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pgvn/internal/core"
	"pgvn/internal/driver"
	"pgvn/internal/obs"
	"pgvn/internal/parser"
	"pgvn/internal/server/store"
	"pgvn/internal/workload"
)

// postOptimize sends one optimize request to the handler in-process.
func postOptimize(t testing.TB, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/optimize", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// reqBody builds an optimize request envelope.
func reqBody(t testing.TB, source string, extra map[string]any) string {
	t.Helper()
	m := map[string]any{"source": source}
	for k, v := range extra {
		m[k] = v
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// benchSource renders one workload benchmark in parseable surface syntax,
// exactly what a client would POST (and what gvnopt would read from a
// file produced by gvngen).
func benchSource(b workload.Benchmark) string {
	return workload.CorpusSource(b)
}

// gvnoptText runs the same source through the driver exactly as gvnopt's
// default invocation does and returns what gvnopt would print.
func gvnoptText(t *testing.T, src string) string {
	t.Helper()
	routines, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	// gvnopt's default invocation: core.DefaultConfig() and semi-pruned
	// φ-placement (the ssa.Placement zero value).
	batch := driver.New(driver.Config{Core: core.DefaultConfig()}).Run(context.Background(), routines)
	if err := batch.Err(); err != nil {
		t.Fatal(err)
	}
	return batch.Text()
}

const tinySource = "func f(x) {\nentry:\n  y = x + 0\n  return y\n}\n"

// TestOptimizePresetsMatchGvnopt is the end-to-end acceptance check: for
// every one of the ten workload presets, POST /v1/optimize returns
// optimized text byte-identical to gvnopt on the same input.
func TestOptimizePresetsMatchGvnopt(t *testing.T) {
	s := New(Config{})
	corpus := workload.Corpus(0.02)
	if len(corpus) != 10 {
		t.Fatalf("corpus has %d presets, want 10", len(corpus))
	}
	for _, b := range corpus {
		src := benchSource(b)
		rec := postOptimize(t, s.Handler(), reqBody(t, src, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", b.Name, rec.Code, rec.Body)
		}
		var resp OptimizeResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if resp.Schema != ResponseSchema {
			t.Fatalf("%s: schema %q", b.Name, resp.Schema)
		}
		if want := gvnoptText(t, src); resp.Text != want {
			t.Fatalf("%s: server text differs from gvnopt (%d vs %d bytes)",
				b.Name, len(resp.Text), len(want))
		}
		if len(resp.Routines) != len(b.Routines) || resp.Stats.Routines != len(b.Routines) {
			t.Fatalf("%s: %d routine reports for %d routines",
				b.Name, len(resp.Routines), len(b.Routines))
		}
	}
}

// TestMalformedRequests holds the decode path to its contract: every
// malformed input is a structured 4xx, never a panic or a bare body.
func TestMalformedRequests(t *testing.T) {
	s := New(Config{MaxBodyBytes: 1 << 16})
	cases := []struct {
		name   string
		body   string
		status int
		code   string
	}{
		{"not json", "{", http.StatusBadRequest, "bad_json"},
		{"wrong type", `{"source": 7}`, http.StatusBadRequest, "bad_json"},
		{"unknown field", `{"source": "x", "sauce": 1}`, http.StatusBadRequest, "bad_json"},
		{"trailing data", `{"source": "func f(x) {\ne:\n  return x\n}"} {"a":1}`, http.StatusBadRequest, "bad_json"},
		{"empty source", `{"source": ""}`, http.StatusBadRequest, "empty_source"},
		{"missing source", `{}`, http.StatusBadRequest, "empty_source"},
		{"negative timeout", `{"source": "x", "timeout_ms": -1}`, http.StatusBadRequest, "bad_timeout"},
		{"bad mode", `{"source": "x", "mode": "psychic"}`, http.StatusBadRequest, "bad_mode"},
		{"bad check", `{"source": "x", "check": "paranoid"}`, http.StatusBadRequest, "bad_check"},
		{"parse error", `{"source": "func ("}`, http.StatusBadRequest, "parse_error"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := postOptimize(t, s.Handler(), tc.body)
			if rec.Code != tc.status {
				t.Fatalf("status = %d, want %d (%s)", rec.Code, tc.status, rec.Body)
			}
			var eb ErrorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
				t.Fatalf("error body not structured JSON: %v: %s", err, rec.Body)
			}
			if eb.Error.Code != tc.code || eb.Error.Status != tc.status {
				t.Fatalf("error = %+v, want code %q status %d", eb.Error, tc.code, tc.status)
			}
		})
	}
}

func TestBodyTooLarge(t *testing.T) {
	s := New(Config{MaxBodyBytes: 64})
	rec := postOptimize(t, s.Handler(), reqBody(t, strings.Repeat("x", 200), nil))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", rec.Code)
	}
	var eb ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error.Code != "body_too_large" {
		t.Fatalf("error = %+v (%v)", eb.Error, err)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s := New(Config{})
	req := httptest.NewRequest(http.MethodGet, "/v1/optimize", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != http.MethodPost {
		t.Fatalf("status = %d, Allow = %q", rec.Code, rec.Header().Get("Allow"))
	}
}

// TestSaturation asserts 429 + Retry-After when slots and queue are
// full, while the in-flight request is unaffected — and that the shed
// response still carries its trace id, so a rejected client can ask
// /v1/trace/{id} what happened.
func TestSaturation(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{MaxConcurrent: 1, MaxQueue: -1, Metrics: reg, RetryAfter: 2 * time.Second,
		Spans: obs.NewSpans("n0", 0, reg)})
	entered := make(chan struct{})
	release := make(chan struct{})
	s.hookBeforeRun = func(ctx context.Context, _ int) {
		close(entered)
		<-release
	}
	inflight := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		inflight <- postOptimize(t, s.Handler(), reqBody(t, tinySource, nil))
	}()
	<-entered
	rec := postOptimize(t, s.Handler(), reqBody(t, tinySource, nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated status = %d, want 429 (%s)", rec.Code, rec.Body)
	}
	// The hint is jittered ±20% around the 2s base (empty queue), so it
	// renders as 2 or 3 whole seconds.
	ra, err := strconv.Atoi(rec.Header().Get("Retry-After"))
	if err != nil || ra < 2 || ra > 3 {
		t.Fatalf("Retry-After = %q, want 2..3s around the jittered base", rec.Header().Get("Retry-After"))
	}
	var eb ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error.Code != "saturated" {
		t.Fatalf("error = %+v (%v)", eb.Error, err)
	}
	if tid := rec.Header().Get(TraceHeader); !obs.ValidTraceID(tid) {
		t.Fatalf("429 %s = %q, want a valid trace id", TraceHeader, tid)
	}
	close(release)
	if first := <-inflight; first.Code != http.StatusOK {
		t.Fatalf("in-flight request dropped by saturation: %d (%s)", first.Code, first.Body)
	}
	if n := reg.Counter("server.saturated").Value(); n != 1 {
		t.Fatalf("server.saturated = %d", n)
	}
}

// TestRetryAfterScalesWithQueueDepth pins the satellite fix: the hint
// grows with queue occupancy (a deeper queue needs a longer backoff)
// and carries ±20% jitter so synchronized clients decorrelate.
func TestRetryAfterScalesWithQueueDepth(t *testing.T) {
	s := New(Config{MaxConcurrent: 2, MaxQueue: 64, RetryAfter: 4 * time.Second})
	// Empty queue: base 4s, jittered to [3.2s, 4.8s] → 4..5 whole
	// seconds.
	distinct := map[int]bool{}
	for i := 0; i < 200; i++ {
		h := s.retryAfterHint()
		if h < 4 || h > 5 {
			t.Fatalf("empty-queue hint = %d, want 4..5", h)
		}
		distinct[h] = true
	}
	if len(distinct) < 2 {
		t.Fatal("200 hints identical: jitter missing")
	}
	// Simulate 8 queued requests draining 2-wide: base 4s + 8/2×4s =
	// 20s, jittered to [16s, 24s].
	s.gate.queued.Store(8)
	for i := 0; i < 50; i++ {
		if h := s.retryAfterHint(); h < 16 || h > 24 {
			t.Fatalf("deep-queue hint = %d, want 16..24", h)
		}
	}
}

// TestRequestTimeout asserts the per-request deadline propagates as
// context cancellation and surfaces as a structured 504.
func TestRequestTimeout(t *testing.T) {
	s := New(Config{})
	s.hookBeforeRun = func(ctx context.Context, _ int) { <-ctx.Done() }
	rec := postOptimize(t, s.Handler(), reqBody(t, tinySource, map[string]any{"timeout_ms": 50}))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (%s)", rec.Code, rec.Body)
	}
	var eb ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error.Code != "timeout" {
		t.Fatalf("error = %+v (%v)", eb.Error, err)
	}
}

// TestPanicIsolation asserts a panicking request becomes a structured
// 500 and the server keeps serving.
func TestPanicIsolation(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Metrics: reg})
	var once atomic.Bool
	s.hookBeforeRun = func(context.Context, int) {
		if once.CompareAndSwap(false, true) {
			panic("kaboom")
		}
	}
	rec := postOptimize(t, s.Handler(), reqBody(t, tinySource, nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var eb ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error.Code != "internal" {
		t.Fatalf("error = %+v (%v)", eb.Error, err)
	}
	if n := reg.Counter("server.panics").Value(); n != 1 {
		t.Fatalf("server.panics = %d", n)
	}
	rec = postOptimize(t, s.Handler(), reqBody(t, tinySource, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("server did not survive the panic: %d (%s)", rec.Code, rec.Body)
	}
}

// TestGracefulDrain starts a real listener, parks a request in the
// pipeline, shuts down, and asserts Shutdown waited for the in-flight
// request and flushed the store index.
func TestGracefulDrain(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Store: st})
	entered := make(chan struct{})
	release := make(chan struct{})
	s.hookBeforeRun = func(ctx context.Context, _ int) {
		close(entered)
		<-release
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	url := "http://" + s.Addr + "/v1/optimize"
	type outcome struct {
		status int
		body   []byte
		err    error
	}
	inflight := make(chan outcome, 1)
	go func() {
		resp, err := http.Post(url, "application/json",
			strings.NewReader(reqBody(t, tinySource, nil)))
		if err != nil {
			inflight <- outcome{err: err}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		inflight <- outcome{status: resp.StatusCode, body: body}
	}()
	<-entered

	drained := make(chan error, 1)
	go func() { drained <- s.Shutdown(context.Background()) }()
	select {
	case err := <-drained:
		t.Fatalf("Shutdown returned with a request in flight: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	oc := <-inflight
	if oc.err != nil || oc.status != http.StatusOK {
		t.Fatalf("in-flight request dropped by drain: %+v", oc)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "index.json")); err != nil {
		t.Fatalf("store index not flushed on drain: %v", err)
	}
	// Post-drain the listener is gone.
	if _, err := http.Post(url, "application/json", strings.NewReader("{}")); err == nil {
		t.Fatal("listener still accepting after drain")
	}
}

// TestWarmRestart is the persistence acceptance check: a second server
// over the same store directory answers a repeated request entirely from
// disk — identical bytes, a "hit" disposition, and zero pipeline runs.
func TestWarmRestart(t *testing.T) {
	dir := t.TempDir()
	src := benchSource(workload.Corpus(0.02)[0])
	body := reqBody(t, src, nil)

	st1, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg1 := obs.NewRegistry()
	s1 := New(Config{Store: st1, Metrics: reg1})
	rec1 := postOptimize(t, s1.Handler(), body)
	if rec1.Code != http.StatusOK {
		t.Fatalf("cold status = %d: %s", rec1.Code, rec1.Body)
	}
	if got := rec1.Header().Get(CacheHeader); got != "miss" {
		t.Fatalf("cold disposition = %q, want miss", got)
	}
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// A brand-new process: fresh store handle, fresh registry.
	st2, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg2 := obs.NewRegistry()
	s2 := New(Config{Store: st2, Metrics: reg2})
	rec2 := postOptimize(t, s2.Handler(), body)
	if rec2.Code != http.StatusOK {
		t.Fatalf("warm status = %d: %s", rec2.Code, rec2.Body)
	}
	if got := rec2.Header().Get(CacheHeader); got != "hit" {
		t.Fatalf("warm disposition = %q, want hit", got)
	}
	if !bytes.Equal(rec1.Body.Bytes(), rec2.Body.Bytes()) {
		t.Fatal("warm response differs from cold response")
	}
	if hits := reg2.Counter("server.store.hits").Value(); hits != 1 {
		t.Fatalf("server.store.hits = %d, want 1", hits)
	}
	if ran := reg2.Gauge("driver.batch.total").Value(); ran != 0 {
		t.Fatalf("pipeline ran %d batches on a warm hit, want 0", ran)
	}
	if st := st2.Stats(); st.Hits != 1 {
		t.Fatalf("store hits = %d, want 1", st.Hits)
	}
}

// TestObsEndpointsMounted asserts /metrics, /progress and pprof share
// the listener and the per-endpoint instruments fill in.
func TestObsEndpointsMounted(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Metrics: reg, Meta: map[string]string{"cmd": "gvnd-test"}})
	if rec := postOptimize(t, s.Handler(), reqBody(t, tinySource, nil)); rec.Code != http.StatusOK {
		t.Fatalf("optimize: %d", rec.Code)
	}
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}
	mrec := get("/metrics")
	if mrec.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", mrec.Code)
	}
	var snap map[string]any
	if err := json.Unmarshal(mrec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap["schema"] != obs.SnapshotSchema {
		t.Fatalf("snapshot schema = %v", snap["schema"])
	}
	if rec := get("/progress"); rec.Code != http.StatusOK {
		t.Fatalf("/progress: %d", rec.Code)
	}
	if rec := get("/debug/pprof/cmdline"); rec.Code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline: %d", rec.Code)
	}
	if rec := get("/healthz"); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"ok"`) {
		t.Fatalf("/healthz: %d %s", rec.Code, rec.Body)
	}
	if rec := get("/v1/stats"); rec.Code != http.StatusOK {
		t.Fatalf("/v1/stats: %d %s", rec.Code, rec.Body)
	}
	if n := reg.Counter("server.req.optimize").Value(); n != 1 {
		t.Fatalf("server.req.optimize = %d", n)
	}
	if n := reg.Counter("server.status.200").Value(); n < 1 {
		t.Fatalf("server.status.200 = %d", n)
	}
	if c := reg.Histogram("server.latency_ns.optimize").Count(); c != 1 {
		t.Fatalf("latency histogram count = %d", c)
	}
	for _, name := range []string{"metrics", "progress", "pprof", "healthz", "stats"} {
		if n := reg.Counter("server.req." + name).Value(); n != 1 {
			t.Fatalf("server.req.%s = %d, want 1", name, n)
		}
	}
}

// TestModeAndCheckOverrides asserts per-request knobs reach the
// pipeline: balanced mode yields gvnopt -mode=balanced output, and the
// full check tier accepts the corpus.
func TestModeAndCheckOverrides(t *testing.T) {
	s := New(Config{})
	src := benchSource(workload.Corpus(0.01)[3]) // 181.mcf, small
	rec := postOptimize(t, s.Handler(), reqBody(t, src, map[string]any{
		"mode": "balanced", "check": "full",
	}))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var resp OptimizeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	// Balanced output must match a balanced driver run, not the default.
	routines, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := driver.Config{}
	cfg.Core = coreBalanced()
	batch := driver.New(cfg).Run(context.Background(), routines)
	if err := batch.Err(); err != nil {
		t.Fatal(err)
	}
	if resp.Text != batch.Text() {
		t.Fatal("balanced override did not reach the pipeline")
	}
}

// TestAnalyzeOnly asserts analyze_only returns reports but no text.
func TestAnalyzeOnly(t *testing.T) {
	s := New(Config{})
	rec := postOptimize(t, s.Handler(), reqBody(t, tinySource, map[string]any{"analyze_only": true}))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var resp OptimizeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Text != "" || len(resp.Routines) != 1 {
		t.Fatalf("analyze-only: text %d bytes, %d routines", len(resp.Text), len(resp.Routines))
	}
	if resp.Routines[0].Values == 0 {
		t.Fatal("analyze-only report empty")
	}
}

// coreBalanced is the -mode=balanced configuration gvnopt would build.
func coreBalanced() core.Config {
	c := core.DefaultConfig()
	c.Mode = core.Balanced
	return c
}

// TestMemCacheSharedAcrossRequests asserts the in-memory driver cache
// spans requests (second identical request hits per-routine).
func TestMemCacheSharedAcrossRequests(t *testing.T) {
	mc := driver.NewCache()
	s := New(Config{MemCache: mc})
	body := reqBody(t, tinySource, nil)
	for i := 0; i < 2; i++ {
		if rec := postOptimize(t, s.Handler(), body); rec.Code != http.StatusOK {
			t.Fatalf("req %d: %d", i, rec.Code)
		}
	}
	hits, _, _ := mc.Stats()
	if hits == 0 {
		t.Fatal("driver mem cache never hit across requests")
	}
}
