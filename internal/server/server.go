// Package server implements gvnd, the long-running optimization
// service: an HTTP/JSON front end over the internal/driver pipeline
// with production admission control and a persistent warm cache.
//
//   - POST /v1/optimize parses submitted IR, runs the full pgvn
//     pipeline, and returns optimized IR plus per-routine reports; the
//     text is byte-identical to gvnopt on the same input.
//   - Admission control: at most Config.MaxConcurrent requests execute
//     with at most Config.MaxQueue more waiting; past that the server
//     answers 429 with Retry-After instead of queueing unboundedly.
//     Each request runs under a deadline propagated as context
//     cancellation, request bodies are size-capped, and a panicking
//     handler is isolated to a structured 500.
//   - The cache is tiered: an in-memory hot tier (internal/cluster's
//     LRU-by-bytes HotTier) answers the common warm request without
//     touching the filesystem, the disk store (internal/server/store)
//     persists whole responses keyed by the driver fingerprint +
//     source so a restarted daemon starts warm, and concurrent
//     identical requests coalesce onto one pipeline run (single
//     flight).
//   - With a Cluster configured the node is one shard of a gvnd
//     fleet: a consistent-hash ring routes each content key to an
//     owner, a non-owning node asks the owner for the payload
//     (GET /v1/peer/cache/{key}) under a short deadline before
//     computing locally, and peer traffic is admission-controlled
//     separately from user traffic.
//   - The observability endpoints (/metrics, /progress, /debug/pprof/*)
//     mount on the same listener, and every endpoint feeds request
//     counters and latency histograms into the registry.
//   - Shutdown drains gracefully: stop accepting, finish in-flight
//     requests, flush the store index, then return.
package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"pgvn/internal/check"
	"pgvn/internal/cluster"
	"pgvn/internal/core"
	"pgvn/internal/driver"
	"pgvn/internal/obs"
	"pgvn/internal/server/store"
	"pgvn/internal/ssa"
)

// Defaults applied by New for zero Config fields.
const (
	DefaultMaxQueue          = 64
	DefaultRequestTimeout    = 30 * time.Second
	DefaultMaxBodyBytes      = 8 << 20
	DefaultRetryAfter        = 1 * time.Second
	DefaultPeerMaxConcurrent = 4
)

// Config configures a Server. The zero value plus New's defaults is a
// working service with the same pipeline configuration gvnopt uses by
// default.
type Config struct {
	// Core is the base value numbering configuration; a zero value
	// selects core.DefaultConfig(). Requests may override the mode.
	Core core.Config
	// Placement is the SSA φ-placement strategy (zero = semi-pruned).
	Placement ssa.Placement
	// Jobs is the per-request driver pool size (0 = GOMAXPROCS).
	Jobs int
	// Check is the default verification tier; requests may override.
	Check check.Level
	// PRE enables the GVN-PRE pass by default; requests may turn it on
	// per call (but not off — the flag is additive, like Check
	// upgrades).
	PRE bool
	// MaxConcurrent bounds requests executing the pipeline at once
	// (0 = GOMAXPROCS).
	MaxConcurrent int
	// MaxQueue bounds requests waiting for an execution slot
	// (0 = DefaultMaxQueue; negative = no waiting at all).
	MaxQueue int
	// RequestTimeout is the per-request processing deadline
	// (0 = DefaultRequestTimeout). Requests may only shorten it.
	RequestTimeout time.Duration
	// MaxBodyBytes caps the request body (0 = DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// RetryAfter is the hint sent with 429 (0 = DefaultRetryAfter).
	RetryAfter time.Duration
	// Store, when non-nil, persists whole responses across restarts.
	Store *store.Store
	// Hot, when non-nil, is the in-memory response tier above Store:
	// warm requests are served from memory without touching the disk
	// store's mutex or the filesystem.
	Hot *cluster.HotTier
	// Cluster, when non-nil, makes this node one shard of a gvnd
	// fleet: content keys it does not own are peer-filled from their
	// owner before falling back to local compute, and the peer cache
	// endpoint is served to other members.
	Cluster *cluster.Cluster
	// PeerMaxConcurrent bounds concurrent peer cache reads — the
	// owner-side admission control for fleet-internal traffic,
	// deliberately separate from the user-facing gate so a peer storm
	// cannot starve user requests and vice versa
	// (0 = DefaultPeerMaxConcurrent).
	PeerMaxConcurrent int
	// MemCache, when non-nil, memoizes per-routine driver results in
	// memory (a second, finer-grained layer under the response store).
	MemCache *driver.Cache
	// Metrics receives request counters, latency histograms and the
	// driver's batch instrumentation; nil disables (endpoints still
	// serve, with empty snapshots).
	Metrics *obs.Registry
	// Spans, when non-nil, turns on distributed tracing: every
	// /v1/optimize request gets a span tree (admission → store →
	// peer-fill → per-routine fixpoint), propagated via the W3C
	// traceparent header across peer fills and assembled fleet-wide by
	// GET /v1/trace/{id}. nil means tracing off — the span API
	// degenerates to nil-receiver no-ops.
	Spans *obs.Spans
	// Meta is attached to every /metrics snapshot.
	Meta map[string]string
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	zero := core.Config{}
	if c.Core == zero {
		c.Core = core.DefaultConfig()
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	switch {
	case c.MaxQueue == 0:
		c.MaxQueue = DefaultMaxQueue
	case c.MaxQueue < 0:
		c.MaxQueue = 0
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = DefaultRequestTimeout
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = DefaultRetryAfter
	}
	if c.PeerMaxConcurrent <= 0 {
		c.PeerMaxConcurrent = DefaultPeerMaxConcurrent
	}
	return c
}

// Server is the gvnd service. Create with New, expose with Start (or
// mount Handler on a listener of your own), stop with Shutdown.
type Server struct {
	cfg      Config
	gate     *gate
	peerGate *gate
	flights  *cluster.Flights
	mux      http.Handler
	httpSrv  *http.Server
	done     chan error
	draining atomic.Bool
	stopped  atomic.Bool
	started  atomic.Int64 // epoch seconds, for /healthz uptime

	// Addr is the bound address after Start (useful with ":0").
	Addr string

	// hookBeforeRun, when set (tests only), runs after decode/admission
	// and before the driver — the latency and fault injection point.
	hookBeforeRun func(ctx context.Context, routines int)
	// hookPeerServe, when set (tests only), runs after peer admission
	// and before the cache lookup.
	hookPeerServe func()
}

// New builds a Server from cfg (see Config for defaulting).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		gate:     newGate(cfg.MaxConcurrent, cfg.MaxQueue),
		peerGate: newGate(cfg.PeerMaxConcurrent, 0),
		flights:  cluster.NewFlights(),
		done:     make(chan error, 1),
	}
	mux := http.NewServeMux()
	mux.Handle("/v1/optimize", s.instrument("optimize", http.HandlerFunc(s.handleOptimize)))
	mux.Handle("/v1/peer/cache/{key}", s.instrument("peer", http.HandlerFunc(s.handlePeerCache)))
	mux.Handle("/v1/trace/{id}", s.instrument("trace", http.HandlerFunc(s.handleTrace)))
	mux.Handle("/v1/stats", s.instrument("stats", http.HandlerFunc(s.handleStats)))
	mux.Handle("/healthz", s.instrument("healthz", http.HandlerFunc(s.handleHealthz)))
	// The observability endpoints share the listener: one port to
	// scrape, profile and drive.
	obsMux := obs.NewMux(obs.ServerConfig{
		Registry: cfg.Metrics,
		Progress: obs.RegistryProgress(cfg.Metrics),
		Meta:     cfg.Meta,
	})
	mux.Handle("/metrics", s.instrument("metrics", obsMux))
	mux.Handle("/progress", s.instrument("progress", obsMux))
	mux.Handle("/debug/pprof/", s.instrument("pprof", obsMux))
	s.mux = mux
	return s
}

// logf logs through Config.Logf when set.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// statusWriter records the response code for instrumentation.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code, w.wrote = code, true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(p)
}

// instrument wraps h with panic isolation plus per-endpoint request
// counters, per-status counters and a latency histogram.
func (s *Server) instrument(name string, h http.Handler) http.Handler {
	m := s.cfg.Metrics
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			if p := recover(); p != nil {
				s.logf("gvnd: panic serving %s: %v\n%s", r.URL.Path, p, debug.Stack())
				m.Counter("server.panics").Inc()
				sw.code = http.StatusInternalServerError
				if !sw.wrote {
					writeErr(sw, &apiError{status: http.StatusInternalServerError,
						code: "internal", msg: fmt.Sprintf("internal error: %v", p)})
				}
			}
			m.Counter("server.req." + name).Inc()
			m.Counter("server.status." + strconv.Itoa(sw.code)).Inc()
			m.Histogram("server.latency_ns." + name).Observe(int64(time.Since(start)))
			// A handler that stamped its trace id feeds the latency
			// exemplars: the histogram keeps the trace ids of its slowest
			// observations, so /v1/stats can point at traces worth reading.
			if tid := sw.Header().Get(TraceHeader); tid != "" {
				m.Exemplars("server.latency_ns."+name).Observe(int64(time.Since(start)), tid)
			}
		}()
		h.ServeHTTP(sw, r)
	})
}

// healthBody is the /healthz response.
type healthBody struct {
	Status        string `json:"status"` // "ok" or "draining"
	UptimeSeconds int64  `json:"uptime_seconds"`
	Inflight      int    `json:"inflight"`
	Queued        int64  `json:"queued"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	var uptime int64
	if st := s.started.Load(); st > 0 {
		uptime = time.Now().Unix() - st
	}
	writeJSON(w, http.StatusOK, healthBody{
		Status:        status,
		UptimeSeconds: uptime,
		Inflight:      s.gate.inflight(),
		Queued:        s.gate.waiting(),
	})
}

// statsBody is the /v1/stats response: the live admission and cache
// picture an operator checks first.
type statsBody struct {
	Inflight      int            `json:"inflight"`
	Queued        int64          `json:"queued"`
	MaxConcurrent int            `json:"max_concurrent"`
	MaxQueue      int            `json:"max_queue"`
	Draining      bool           `json:"draining"`
	Fingerprint   string         `json:"fingerprint"`
	Store         *storeStats    `json:"store,omitempty"`
	Hot           *hotStats      `json:"hot,omitempty"`
	Cluster       *clusterStats  `json:"cluster,omitempty"`
	MemCache      *memCacheStats `json:"mem_cache,omitempty"`
	Trace         *traceStats    `json:"trace,omitempty"`
}

// traceStats is the span buffer's live picture plus the latency
// exemplars: the slowest recent /v1/optimize observations with the
// trace ids to look them up by.
type traceStats struct {
	Node    string         `json:"node"`
	Spans   int            `json:"spans"`
	Traces  int            `json:"traces"`
	Started int64          `json:"started"`
	Dropped int64          `json:"dropped"`
	Slowest []obs.Exemplar `json:"slowest,omitempty"`
}

type storeStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Puts      int64 `json:"puts"`
	Evictions int64 `json:"evictions"`
	Corrupt   int64 `json:"corrupt"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"max_bytes"`
}

type memCacheStats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"`
}

type hotStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Puts      int64 `json:"puts"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"max_bytes"`
}

// clusterStats is this node's view of the fleet: who it is, who is
// routable, and every peer's probe state.
type clusterStats struct {
	Self        string              `json:"self"`
	RingMembers []string            `json:"ring_members"`
	Peers       []cluster.PeerState `json:"peers"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	body := statsBody{
		Inflight:      s.gate.inflight(),
		Queued:        s.gate.waiting(),
		MaxConcurrent: s.cfg.MaxConcurrent,
		MaxQueue:      s.cfg.MaxQueue,
		Draining:      s.draining.Load(),
		Fingerprint:   s.Fingerprint(),
	}
	if s.cfg.Hot != nil {
		ht := s.cfg.Hot.Stats()
		body.Hot = &hotStats{
			Hits: ht.Hits, Misses: ht.Misses, Puts: ht.Puts,
			Evictions: ht.Evictions, Entries: ht.Entries,
			Bytes: ht.Bytes, MaxBytes: ht.MaxBytes,
		}
	}
	if s.cfg.Cluster != nil {
		body.Cluster = &clusterStats{
			Self:        s.cfg.Cluster.Self().Name,
			RingMembers: s.cfg.Cluster.Alive(),
			Peers:       s.cfg.Cluster.States(),
		}
	}
	if s.cfg.Store != nil {
		st := s.cfg.Store.Stats()
		body.Store = &storeStats{
			Hits: st.Hits, Misses: st.Misses, Puts: st.Puts,
			Evictions: st.Evictions, Corrupt: st.Corrupt,
			Entries: st.Entries, Bytes: st.Bytes, MaxBytes: st.MaxBytes,
		}
	}
	if s.cfg.MemCache != nil {
		hits, misses, entries := s.cfg.MemCache.Stats()
		body.MemCache = &memCacheStats{Hits: hits, Misses: misses, Entries: entries}
	}
	if s.cfg.Spans != nil {
		st := s.cfg.Spans.Stats()
		body.Trace = &traceStats{
			Node: s.cfg.Spans.Node(), Spans: st.Spans, Traces: st.Traces,
			Started: st.Started, Dropped: st.Dropped,
			Slowest: s.cfg.Metrics.Exemplars("server.latency_ns.optimize").Snapshot(),
		}
	}
	writeJSON(w, http.StatusOK, body)
}

// Start binds addr (e.g. "localhost:8080" or ":0") and serves in the
// background through the hardened HTTP server; it returns once the
// listener is accepting, with the bound address in s.Addr.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.Serve(ln)
	return nil
}

// Serve exposes the server on an existing listener — what the fleet
// tests use to bind every node's port before wiring their rings.
func (s *Server) Serve(ln net.Listener) {
	s.Addr = ln.Addr().String()
	s.httpSrv = obs.NewHTTPServer(s.mux)
	s.started.Store(time.Now().Unix())
	go func() { s.done <- s.httpSrv.Serve(ln) }()
}

// Done exposes the serve loop's terminal error (http.ErrServerClosed
// after Shutdown/Close); the daemon selects on it to detect a listener
// that died underneath it.
func (s *Server) Done() <-chan error { return s.done }

// Shutdown drains gracefully: stop accepting new connections, wait for
// in-flight requests to finish (bounded by ctx), then flush the store
// index so the LRU order survives the restart. It is the SIGINT/SIGTERM
// path; the returned error is the first failure of the sequence. A
// second Shutdown is a no-op flush: the serve-loop error is consumed
// exactly once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	var err error
	if s.httpSrv != nil && s.stopped.CompareAndSwap(false, true) {
		err = s.httpSrv.Shutdown(ctx)
		if err != nil {
			// The drain deadline expired: sever the stragglers rather
			// than hang the exit path.
			_ = s.httpSrv.Close()
		}
		<-s.done
	}
	if s.cfg.Store != nil {
		if ferr := s.cfg.Store.Flush(); err == nil {
			err = ferr
		}
	}
	return err
}

// Fingerprint returns the driver fingerprint for the server's default
// configuration — what the store keys on when a request overrides
// nothing. Exposed for operators correlating store contents ("why is
// this entry not hit?") with configurations.
func (s *Server) Fingerprint() string {
	cfg, _ := s.driverConfig(&OptimizeRequest{})
	return cfg.Fingerprint()
}

// Describe renders a one-line startup summary for the daemon log.
func (s *Server) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "concurrency %d, queue %d, timeout %v, max body %d",
		s.cfg.MaxConcurrent, s.cfg.MaxQueue, s.cfg.RequestTimeout, s.cfg.MaxBodyBytes)
	if s.cfg.Store != nil {
		st := s.cfg.Store.Stats()
		fmt.Fprintf(&b, ", store %d entries (%d bytes)", st.Entries, st.Bytes)
	} else {
		b.WriteString(", store off")
	}
	if s.cfg.Hot != nil {
		ht := s.cfg.Hot.Stats()
		fmt.Fprintf(&b, ", hot tier %d bytes budget", ht.MaxBytes)
	}
	if s.cfg.MemCache != nil {
		b.WriteString(", mem-cache on")
	}
	if s.cfg.Cluster != nil {
		fmt.Fprintf(&b, ", cluster %s (%d members)",
			s.cfg.Cluster.Self().Name, len(s.cfg.Cluster.States()))
	}
	return b.String()
}
