package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"

	"pgvn/internal/check"
	"pgvn/internal/cluster"
	"pgvn/internal/core"
	"pgvn/internal/driver"
	"pgvn/internal/obs"
	"pgvn/internal/parser"
	"pgvn/internal/server/store"
)

// ResponseSchema tags every successful /v1/optimize body.
const ResponseSchema = "gvnd/v1"

// CacheHeader reports the cache disposition of an optimize response:
// "hit" (served from some cache tier, pipeline not run), "miss"
// (computed and stored) or "off" (no cache configured). It is a
// header, not a body field, so the body stays a pure function of
// (source, configuration) and the stored bytes can be replayed
// verbatim.
const CacheHeader = "X-Gvnd-Cache"

// CacheTierHeader names the tier that served a hit: "mem" (hot tier),
// "disk" (persistent store), "peer" (filled from the owning node) or
// "coalesced" (shared a concurrent identical pipeline run).
const CacheTierHeader = "X-Gvnd-Cache-Tier"

// NodeHeader is the serving node's cluster name, set whenever the
// server is part of a fleet.
const NodeHeader = "X-Gvnd-Node"

// RoutingHeader reports how the serving node relates to the key:
// "owner" when the consistent-hash ring assigns it the key, "remote"
// when the client addressed a non-owner (gvnload's routing-mismatch
// rate counts these).
const RoutingHeader = "X-Gvnd-Routing"

// TraceHeader carries the request's distributed-trace id on every
// /v1/optimize response — including 429s, so a shed client can still
// ask /v1/trace/{id} why it was shed. Set only when tracing is on.
const TraceHeader = "X-Gvnd-Trace"

// OptimizeRequest is the POST /v1/optimize envelope. Source is the
// textual IR exactly as gvnopt would read it; the optional knobs
// override the daemon's defaults per request.
type OptimizeRequest struct {
	// Source holds one or more routines in the textual IR.
	Source string `json:"source"`
	// Mode selects the value numbering mode: "optimistic" (default),
	// "balanced" or "pessimistic".
	Mode string `json:"mode,omitempty"`
	// Check selects the self-verification tier: "off" (default), "fast"
	// or "full".
	Check string `json:"check,omitempty"`
	// AnalyzeOnly skips the transformations; Text stays empty and only
	// the reports are returned.
	AnalyzeOnly bool `json:"analyze_only,omitempty"`
	// PRE enables the GVN-PRE pass for this request (additive with the
	// server default).
	PRE bool `json:"pre,omitempty"`
	// TimeoutMS caps this request's processing time; 0 uses the server
	// default, and values above the server maximum are clamped to it.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// RoutineSummary is the per-routine report in an optimize response.
// Every field is a deterministic function of (source, configuration),
// which is what makes whole responses cacheable byte-for-byte.
type RoutineSummary struct {
	Name              string `json:"name"`
	Passes            int    `json:"passes"`
	InstrEvals        int    `json:"instr_evals"`
	Touches           int    `json:"touches"`
	Values            int    `json:"values"`
	Classes           int    `json:"classes"`
	ConstantValues    int    `json:"constant_values"`
	UnreachableValues int    `json:"unreachable_values"`
	BlocksRemoved     int    `json:"blocks_removed"`
	EdgesRemoved      int    `json:"edges_removed"`
	ConstantsProp     int    `json:"constants_propagated"`
	Redundancies      int    `json:"redundancies_replaced"`
	InstrsRemoved     int    `json:"instrs_removed"`
	BlocksSimplified  int    `json:"blocks_simplified"`
	PREInsertions     int    `json:"pre_insertions,omitempty"`
	PRERemoved        int    `json:"pre_removed,omitempty"`
	PREEdgeSplits     int    `json:"pre_edge_splits,omitempty"`
	AlwaysReturns     int64  `json:"always_returns,omitempty"`
	Const             bool   `json:"const,omitempty"`
}

// BatchSummary aggregates an optimize response. Wall/CPU timings are
// deliberately absent (they vary run to run; latency lives in the
// /metrics histograms), keeping the body deterministic.
type BatchSummary struct {
	Routines int `json:"routines"`
	Failed   int `json:"failed"`
}

// OptimizeResponse is the 200 body: Text is byte-identical to what
// `gvnopt` prints for the same source and configuration.
type OptimizeResponse struct {
	Schema   string           `json:"schema"`
	Text     string           `json:"text"`
	Routines []RoutineSummary `json:"routines"`
	Stats    BatchSummary     `json:"stats"`
}

// ErrorDetail is the structured error in every non-2xx body.
type ErrorDetail struct {
	Code    string   `json:"code"`
	Message string   `json:"message"`
	Status  int      `json:"status"`
	Fails   []string `json:"failures,omitempty"`
}

// ErrorBody is the non-2xx envelope.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// apiError carries a structured failure from request decoding or
// execution to the response writer.
type apiError struct {
	status int
	code   string
	msg    string
	fails  []string
}

func (e *apiError) Error() string { return e.msg }

func badRequest(code, format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, code: code, msg: fmt.Sprintf(format, args...)}
}

// writeJSON writes v as the response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeErr writes the structured error envelope.
func writeErr(w http.ResponseWriter, e *apiError) {
	writeJSON(w, e.status, ErrorBody{Error: ErrorDetail{
		Code: e.code, Message: e.msg, Status: e.status, Fails: e.fails,
	}})
}

// decodeOptimize reads and validates the request envelope. Every
// malformed input maps to a structured 4xx — the fuzz target holds the
// handler to exactly that contract.
func decodeOptimize(w http.ResponseWriter, r *http.Request, maxBody int64) (*OptimizeRequest, *apiError) {
	body := http.MaxBytesReader(w, r.Body, maxBody)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var req OptimizeRequest
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, &apiError{status: http.StatusRequestEntityTooLarge, code: "body_too_large",
				msg: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)}
		}
		return nil, badRequest("bad_json", "decoding request: %v", err)
	}
	// A second document after the envelope is a malformed request, not
	// trailing input to ignore.
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return nil, badRequest("bad_json", "trailing data after request object")
	}
	if req.Source == "" {
		return nil, badRequest("empty_source", "request has no source")
	}
	if req.TimeoutMS < 0 {
		return nil, badRequest("bad_timeout", "timeout_ms must be >= 0")
	}
	return &req, nil
}

// driverConfig resolves the request knobs against the server defaults
// into the driver configuration that identifies the result.
func (s *Server) driverConfig(req *OptimizeRequest) (driver.Config, *apiError) {
	cfg := driver.Config{
		Core:        s.cfg.Core,
		Placement:   s.cfg.Placement,
		Jobs:        s.cfg.Jobs,
		Check:       s.cfg.Check,
		AnalyzeOnly: req.AnalyzeOnly,
		PRE:         s.cfg.PRE || req.PRE,
		Cache:       s.cfg.MemCache,
		Metrics:     s.cfg.Metrics,
	}
	switch req.Mode {
	case "":
	case "optimistic":
		cfg.Core.Mode = core.Optimistic
	case "balanced":
		cfg.Core.Mode = core.Balanced
	case "pessimistic":
		cfg.Core.Mode = core.Pessimistic
	default:
		return cfg, badRequest("bad_mode", "unknown mode %q (want optimistic, balanced or pessimistic)", req.Mode)
	}
	if req.Check != "" {
		level, err := check.ParseLevel(req.Check)
		if err != nil {
			return cfg, badRequest("bad_check", "%v", err)
		}
		cfg.Check = level
	}
	return cfg, nil
}

// timeoutFor resolves the effective deadline for a request.
func (s *Server) timeoutFor(req *OptimizeRequest) time.Duration {
	d := s.cfg.RequestTimeout
	if req.TimeoutMS > 0 {
		if rd := time.Duration(req.TimeoutMS) * time.Millisecond; rd < d {
			d = rd
		}
	}
	return d
}

// writePayload writes a cached (or just-computed) response payload
// with its cache disposition headers.
func (s *Server) writePayload(w http.ResponseWriter, payload []byte, disposition, tier string) {
	w.Header().Set(CacheHeader, disposition)
	if tier != "" {
		w.Header().Set(CacheTierHeader, tier)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(payload)
}

// lookupLocal consults this node's cache tiers in order — hot memory,
// then disk — promoting disk hits into the hot tier. tier names which
// one answered.
func (s *Server) lookupLocal(key string) (payload []byte, tier string, ok bool) {
	m := s.cfg.Metrics
	if s.cfg.Hot != nil {
		if p, ok := s.cfg.Hot.Get(key); ok {
			return p, "mem", true
		}
	}
	if s.cfg.Store != nil {
		if p, ok := s.cfg.Store.Get(key); ok {
			m.Counter("server.store.hits").Inc()
			if s.cfg.Hot != nil {
				s.cfg.Hot.Put(key, p)
			}
			return p, "disk", true
		}
		m.Counter("server.store.misses").Inc()
	}
	return nil, "", false
}

// fillLocal records a payload in every local tier this node has.
// Whether the disk store is filled depends on ownership: the owner
// persists, a non-owner serving a fallback keeps the bytes only in
// memory so the fleet holds one durable copy per key.
func (s *Server) fillLocal(key string, payload []byte, persist bool) {
	m := s.cfg.Metrics
	if persist && s.cfg.Store != nil {
		if err := s.cfg.Store.Put(key, payload); err != nil {
			// A full or broken disk degrades to compute-every-time; the
			// response is still correct.
			s.logf("gvnd: store put: %v", err)
			m.Counter("server.store.put_errors").Inc()
		}
	}
	if s.cfg.Hot != nil {
		s.cfg.Hot.Put(key, payload)
	}
}

// handleOptimize is POST /v1/optimize: admission, decode, tiered cache
// lookup (memory → disk → owning peer), then a single-flight pipeline
// run and cache fill.
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeErr(w, &apiError{status: http.StatusMethodNotAllowed, code: "method_not_allowed",
			msg: "use POST"})
		return
	}
	m := s.cfg.Metrics
	// Root span before admission: a shed request still deposits its
	// "optimize" span and answers with its trace id, so a client told
	// 429 can still ask /v1/trace/{id} what happened to it. A valid
	// propagated traceparent is adopted; otherwise a fresh trace starts.
	parentSC, _ := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
	root := s.cfg.Spans.StartRoot("optimize", parentSC)
	defer root.End()
	if tid := root.TraceID(); tid != "" {
		w.Header().Set(TraceHeader, tid)
	}
	gateSpan := root.StartChild("admission")
	gateErr := s.gate.acquire(r.Context())
	gateSpan.End()
	if gateErr != nil {
		if errors.Is(gateErr, ErrSaturated) {
			root.SetAttr("outcome", "saturated")
			m.Counter("server.saturated").Inc()
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterHint()))
			writeErr(w, &apiError{status: http.StatusTooManyRequests, code: "saturated",
				msg: "server saturated; retry later"})
			return
		}
		// The client's context died while queued: deadline exhausted in
		// the queue, or the client went away. 503 is best-effort — a
		// vanished client never reads it.
		root.SetAttr("outcome", "queue_expired")
		writeErr(w, &apiError{status: http.StatusServiceUnavailable, code: "queue_wait",
			msg: fmt.Sprintf("request expired while queued: %v", gateErr)})
		return
	}
	defer s.gate.release()

	req, aerr := decodeOptimize(w, r, s.cfg.MaxBodyBytes)
	if aerr != nil {
		writeErr(w, aerr)
		return
	}
	dcfg, aerr := s.driverConfig(req)
	if aerr != nil {
		writeErr(w, aerr)
		return
	}
	key := store.Key(dcfg.Fingerprint(), req.Source)

	// Fleet routing: name the serving node and whether the ring says
	// this key is ours. isOwner defaults true — a node outside any
	// cluster owns everything.
	isOwner := true
	var owner cluster.Node
	if s.cfg.Cluster != nil {
		w.Header().Set(NodeHeader, s.cfg.Cluster.Self().Name)
		if o, ok := s.cfg.Cluster.Owner(key); ok {
			owner = o
			isOwner = o.Name == s.cfg.Cluster.Self().Name
		}
		if isOwner {
			w.Header().Set(RoutingHeader, "owner")
		} else {
			w.Header().Set(RoutingHeader, "remote")
		}
	}

	storeSpan := root.StartChild("store")
	payload, tier, cached := s.lookupLocal(key)
	if cached {
		// Tiers hold the gzip'd response; a payload that fails to decode
		// is treated as a miss and recomputed (the fill overwrites it).
		if body, ok := decodePayload(payload); ok {
			payload = body
		} else {
			cached = false
			m.Counter("server.cache.unpack_errors").Inc()
		}
	}
	if cached {
		storeSpan.SetAttr("tier", tier)
	}
	storeSpan.End()
	if cached {
		root.SetAttr("cache", tier)
		s.writePayload(w, payload, "hit", tier)
		return
	}
	// Not cached here and not ours: ask the owner before computing.
	// A short deadline bounds the detour — a slow or dead owner costs
	// at most PeerFillTimeout, then this node computes like a
	// single-node daemon would.
	if !isOwner {
		pf := root.StartChild("peerfill")
		pf.SetAttr("owner", owner.Name)
		pctx := obs.ContextWithSpan(r.Context(), pf)
		payload, ok := s.cfg.Cluster.FetchPeer(pctx, owner, key)
		if ok {
			pf.SetAttr("hit", "true")
		} else {
			pf.SetAttr("hit", "false")
		}
		pf.End()
		if ok {
			// The owner served the gzip'd form: fill the local tiers
			// with it as-is, decode only for the client. A payload that
			// fails to decode is treated as a peer miss.
			if body, dok := decodePayload(payload); dok {
				root.SetAttr("cache", "peer")
				s.fillLocal(key, payload, false)
				s.writePayload(w, body, "hit", "peer")
				return
			}
			m.Counter("server.cache.unpack_errors").Inc()
		}
	}

	// Single flight: concurrent identical requests share one pipeline
	// run. Followers wait under their own deadlines; the leader runs
	// under a detached context so one impatient client cannot cancel a
	// result every waiter (and the cache) wants.
	fl, leader := s.flights.Join(key)
	if !leader {
		wctx, cancel := context.WithTimeout(r.Context(), s.timeoutFor(req))
		defer cancel()
		v, err := fl.Wait(wctx)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				m.Counter("server.timeouts").Inc()
				writeErr(w, &apiError{status: http.StatusGatewayTimeout, code: "timeout",
					msg: fmt.Sprintf("request exceeded its deadline (%v) waiting for a coalesced run", s.timeoutFor(req))})
				return
			}
			writeErr(w, &apiError{status: http.StatusServiceUnavailable, code: "coalesce_wait",
				msg: fmt.Sprintf("request expired waiting for a coalesced run: %v", err)})
			return
		}
		switch res := v.(type) {
		case []byte:
			root.SetAttr("cache", "coalesced")
			s.writePayload(w, res, "hit", "coalesced")
		case *apiError:
			writeErr(w, res)
		default:
			writeErr(w, &apiError{status: http.StatusInternalServerError, code: "internal",
				msg: "coalesced run returned nothing"})
		}
		return
	}
	// Leader: every exit path must finish the flight or followers hang
	// until their deadlines. The deferred Finish also covers panics
	// (the instrumentation layer turns those into a 500 for the
	// leader; followers see the placeholder error below).
	var flightResult any = &apiError{status: http.StatusInternalServerError, code: "internal",
		msg: "coalesced run failed"}
	defer func() { s.flights.Finish(key, fl, flightResult) }()

	// The leader's context is detached from the client, but the span is
	// threaded through it so the driver can hang per-routine children
	// under this request's trace.
	cs := root.StartChild("compute")
	defer cs.End()
	root.SetAttr("cache", "miss")
	ctx, cancel := context.WithTimeout(context.Background(), s.timeoutFor(req))
	defer cancel()
	ctx = obs.ContextWithSpan(ctx, cs)
	routines, err := parser.Parse(req.Source)
	if err != nil {
		aerr := badRequest("parse_error", "%v", err)
		flightResult = aerr
		writeErr(w, aerr)
		return
	}
	if s.hookBeforeRun != nil {
		s.hookBeforeRun(ctx, len(routines))
	}
	batch := driver.New(dcfg).Run(ctx, routines)
	if batch.Stats.Failed > 0 {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			m.Counter("server.timeouts").Inc()
			aerr := &apiError{status: http.StatusGatewayTimeout, code: "timeout",
				msg: fmt.Sprintf("request exceeded its deadline (%v)", s.timeoutFor(req))}
			flightResult = aerr
			writeErr(w, aerr)
			return
		}
		var fails []string
		for _, re := range batch.Errors() {
			fails = append(fails, re.Error())
		}
		aerr := &apiError{status: http.StatusUnprocessableEntity, code: "routine_failed",
			msg: batch.Err().Error(), fails: fails}
		flightResult = aerr
		writeErr(w, aerr)
		return
	}

	resp := OptimizeResponse{
		Schema: ResponseSchema,
		Text:   batch.Text(),
		Stats:  BatchSummary{Routines: batch.Stats.Routines, Failed: batch.Stats.Failed},
	}
	for i := range batch.Results {
		rr := &batch.Results[i]
		rep := rr.Report
		resp.Routines = append(resp.Routines, RoutineSummary{
			Name:              rr.Name,
			Passes:            rep.Stats.Passes,
			InstrEvals:        rep.Stats.InstrEvals,
			Touches:           rep.Stats.Touches,
			Values:            rep.Counts.Values,
			Classes:           rep.Counts.Classes,
			ConstantValues:    rep.Counts.ConstantValues,
			UnreachableValues: rep.Counts.UnreachableValues,
			BlocksRemoved:     rep.Opt.BlocksRemoved,
			EdgesRemoved:      rep.Opt.EdgesRemoved,
			ConstantsProp:     rep.Opt.ConstantsPropagated,
			Redundancies:      rep.Opt.RedundanciesReplaced,
			InstrsRemoved:     rep.Opt.InstrsRemoved,
			BlocksSimplified:  rep.Opt.BlocksSimplified,
			PREInsertions:     rep.Opt.PRE.Insertions,
			PRERemoved:        rep.Opt.PRE.Removals,
			PREEdgeSplits:     rep.Opt.PRE.EdgeSplits,
			AlwaysReturns:     rep.AlwaysReturns,
			Const:             rep.Const,
		})
	}
	payload, err = json.MarshalIndent(resp, "", "  ")
	if err != nil {
		aerr := &apiError{status: http.StatusInternalServerError, code: "internal",
			msg: fmt.Sprintf("encoding response: %v", err)}
		flightResult = aerr
		writeErr(w, aerr)
		return
	}
	disposition := "off"
	if s.cfg.Store != nil || s.cfg.Hot != nil {
		disposition = "miss"
		// Cache tiers and the peer wire carry the gzip'd form; the
		// client and coalesced followers get the JSON just computed.
		s.fillLocal(key, encodePayload(payload), isOwner)
	}
	flightResult = payload
	s.writePayload(w, payload, disposition, "")
}

// handlePeerCache is GET /v1/peer/cache/{key}: the owner side of peer
// fill. It only ever reads this node's cache tiers — a miss is a 404,
// never a pipeline run, so fleet-internal traffic cannot amplify into
// fleet-internal compute. Peer reads are admission-controlled by their
// own small gate with no queue: a saturated owner sheds peers
// immediately (they fall back to local compute) instead of delaying
// them.
func (s *Server) handlePeerCache(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeErr(w, &apiError{status: http.StatusMethodNotAllowed, code: "method_not_allowed",
			msg: "use GET"})
		return
	}
	m := s.cfg.Metrics
	if err := s.peerGate.acquire(r.Context()); err != nil {
		m.Counter("cluster.peer_serve.rejected").Inc()
		w.Header().Set("Retry-After", "1")
		writeErr(w, &apiError{status: http.StatusTooManyRequests, code: "peer_saturated",
			msg: "peer cache reads saturated; compute locally"})
		return
	}
	defer s.peerGate.release()
	// The filling node propagated its traceparent: this node's serving
	// span joins the same trace, which is how one cold request assembles
	// into a tree spanning ≥ 2 nodes.
	sc, _ := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
	sp := s.cfg.Spans.StartRoot("peer.serve", sc)
	defer sp.End()
	if tid := sp.TraceID(); tid != "" {
		w.Header().Set(TraceHeader, tid)
	}
	key := r.PathValue("key")
	if !store.ValidKey(key) {
		writeErr(w, badRequest("bad_key", "malformed cache key %q", key))
		return
	}
	if s.hookPeerServe != nil {
		s.hookPeerServe()
	}
	if payload, tier, ok := s.lookupLocal(key); ok {
		sp.SetAttr("tier", tier)
		m.Counter("cluster.peer_serve.hits").Inc()
		s.writePayload(w, payload, "hit", tier)
		return
	}
	sp.SetAttr("tier", "miss")
	m.Counter("cluster.peer_serve.misses").Inc()
	writeErr(w, &apiError{status: http.StatusNotFound, code: "not_cached",
		msg: "key not cached on this node"})
}

// retryAfterHint derives the 429 Retry-After hint from the live queue
// depth: a queue of q requests draining MaxConcurrent wide needs about
// q/MaxConcurrent service times to clear, so the configured base hint
// scales with occupancy. ±20% jitter decorrelates retries — a
// synchronized client fleet told the same integer would otherwise
// thundering-herd one shard on the next tick.
func (s *Server) retryAfterHint() int {
	base := s.cfg.RetryAfter
	d := base + time.Duration(s.gate.waiting())*base/time.Duration(s.cfg.MaxConcurrent)
	jitter := 0.8 + 0.4*rand.Float64()
	return retryAfterSeconds(time.Duration(float64(d) * jitter))
}

// retryAfterSeconds renders a duration as a whole-second Retry-After
// value, at least 1.
func retryAfterSeconds(d time.Duration) int {
	s := int((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}
