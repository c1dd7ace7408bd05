package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"pgvn/internal/cluster"
	"pgvn/internal/driver"
	"pgvn/internal/ir"
	"pgvn/internal/obs"
	"pgvn/internal/server"
	"pgvn/internal/server/store"
)

const (
	// warmRate and coldRate are the open-loop arrival rates (req/s). A
	// warm hit takes about 1.2 ms end to end and a cold request about
	// 4 ms of compute, so on two cores both rates keep the server busy
	// without a growing backlog (the generator's lateness stays in the
	// low milliseconds).
	warmRate = 500
	coldRate = 100
	// warmUnits is serve-warm's working set at scale 1.
	warmUnits = 400
	// sampleEvery: a traced run reads back the server spans of every
	// 10th traced request, or more, to read at least sampleMin.
	sampleEvery = 10
	sampleMin   = 200
	// storeMaxBytes and coldHotBytes are cmd/gvnd's -store-max-mb and
	// -hot-mb defaults.
	storeMaxBytes = 256 << 20
	coldHotBytes  = 64 << 20
)

// warmup is the untimed load a serving run sends first: 2 s, less for a
// short run.
func warmup(r *run) time.Duration { return min(2*time.Second, window(r)*3/20) }

// gvnd is an in-process gvnd as cmd/gvnd builds it by default — metrics
// registry, per-routine memory cache — over the given store and hot tier,
// serving on 127.0.0.1. traced turns its span buffer on.
type gvnd struct {
	srv *server.Server
	url string
}

func startGVND(st *store.Store, hot *cluster.HotTier, traced bool) (*gvnd, error) {
	cfg := server.Config{
		Store:    st,
		Hot:      hot,
		Metrics:  obs.NewRegistry(),
		MemCache: driver.NewCache(),
	}
	if traced {
		cfg.Spans = obs.NewSpans("gvnd", 1<<18, nil)
	}
	s := server.New(cfg)
	if err := s.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	return &gvnd{srv: s, url: "http://" + s.Addr}, nil
}

func (g *gvnd) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return g.srv.Shutdown(ctx)
}

// newClient is the load generator's HTTP side: at most nproc
// connections.
func newClient() *http.Client {
	n := runtime.NumCPU()
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     n,
			MaxIdleConnsPerHost: n,
			DisableCompression:  true,
		},
	}
}

// shot is one request's outcome. lat and late count from when the
// request was due, not from when it was sent.
type shot struct {
	unit        int
	due         time.Time
	late, lat   time.Duration
	status      int
	cache, tier string
	body        []byte // kept when no expected body was given
	match       bool   // the body equals the expected one
	err         error
	tc          obs.SpanContext // the client span, traced runs only
}

// drive sends units[seq[i]] open loop, request i due at start + i/rate,
// and returns every outcome once all have finished. expect, when
// non-nil, holds each unit's expected body: bodies are compared on
// arrival and dropped instead of kept.
func drive(ctx context.Context, client *http.Client, url string, units []*unit, seq []int,
	rate float64, traced bool, expect [][]byte) []shot {
	interval := time.Duration(float64(time.Second) / rate)
	shots := make([]shot, len(seq))
	var wg sync.WaitGroup
	start := time.Now()
	for i, ui := range seq {
		due := start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			var want []byte
			if expect != nil {
				want = expect[ui]
			}
			shots[i] = fire(ctx, client, url, ui, units[ui], due, traced, want)
		}()
	}
	wg.Wait()
	return shots
}

func fire(ctx context.Context, client *http.Client, url string, ui int, u *unit, due time.Time,
	traced bool, want []byte) shot {
	s := shot{unit: ui, due: due, late: time.Since(due)}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/optimize", bytes.NewReader(u.body))
	if err != nil {
		s.err = err
		return s
	}
	req.Header.Set("Content-Type", "application/json")
	if traced {
		s.tc = obs.NewTraceContext()
		req.Header.Set(obs.TraceparentHeader, s.tc.Traceparent())
	}
	resp, err := client.Do(req)
	if err == nil {
		s.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		s.status = resp.StatusCode
		s.cache = resp.Header.Get(server.CacheHeader)
		s.tier = resp.Header.Get(server.CacheTierHeader)
	}
	s.lat = time.Since(due)
	s.err = err
	if want != nil {
		s.match = bytes.Equal(s.body, want)
		s.body = nil
	}
	return s
}

// servePlan is what tells the two serving workloads apart.
type servePlan struct {
	rate   float64
	units  []*unit
	seq    []int // the unit each request carries, warm-up requests first
	warm   int   // how many of seq are warm-up
	cache  string
	expect [][]byte // serve-warm: the bytes every response must repeat
	st     *store.Store
	hot    *cluster.HotTier
}

// checkShots counts every shot against attempted and each bad one as
// failed: a transport error, a non-200, a body that is not the expected
// one, or a cache disposition other than the workload's. It returns the
// latencies (ms) of the good ones.
func checkShots(r *run, p servePlan, shots []shot) []float64 {
	var lat []float64
	for i, s := range shots {
		r.attempted++
		switch {
		case s.err != nil:
			r.fail("request %d: %v", i, s.err)
		case s.status != http.StatusOK:
			r.fail("request %d: status %d", i, s.status)
		case p.expect != nil && !s.match:
			r.fail("request %d: body differs from unit %d's first response", i, s.unit)
		case s.cache != p.cache:
			r.fail("request %d: cache %q, want %q", i, s.cache, p.cache)
		default:
			lat = append(lat, ms(s.lat))
		}
	}
	return lat
}

// serve runs a plan against g: the warm-up, then the measured requests.
// A traced run alternates one-second blocks between g and a second gvnd
// over the same tiers with its span buffer on, to which requests carry
// client spans; alternating lets a slow spell of the machine reach both
// alike. It returns the measured shots in request order.
func serve(ctx context.Context, r *run, client *http.Client, g *gvnd, p servePlan) ([]shot, error) {
	checkShots(r, p, drive(ctx, client, g.url, p.units, p.seq[:p.warm], p.rate, false, p.expect))
	measured := p.seq[p.warm:]
	if !r.opts.trace {
		shots := drive(ctx, client, g.url, p.units, measured, p.rate, false, p.expect)
		reportServe(r, p, shots, checkShots(r, p, shots))
		return shots, nil
	}
	tg, err := startGVND(p.st, p.hot, true)
	if err != nil {
		return nil, err
	}
	var shots, plain, traced []shot
	rt0 := readRuntime()
	block := requests(time.Second, p.rate)
	for i := 0; i < len(measured); i += block {
		seq := measured[i:min(i+block, len(measured))]
		if (i/block)%2 == 0 {
			bs := drive(ctx, client, g.url, p.units, seq, p.rate, false, p.expect)
			plain = append(plain, bs...)
			shots = append(shots, bs...)
		} else {
			bs := drive(ctx, client, tg.url, p.units, seq, p.rate, true, p.expect)
			traced = append(traced, bs...)
			shots = append(shots, bs...)
		}
	}
	var use runtimeUse
	use.add(rt0, readRuntime())
	use.report(r)
	untracedLat := checkShots(r, p, plain)
	tracedLat := checkShots(r, p, traced)
	ss, recs, sampled := readSpans(ctx, r, client, tg.url, traced, p.units)
	if err := tg.stop(); err != nil {
		return nil, err
	}
	ss.report(r, shots, p.st)
	r.set("trace.overhead_frac", mean(tracedLat)/mean(untracedLat)-1, "frac")
	ls := newLayerStats()
	profileUnits(r, ls, sampled)
	ls.report(r)
	var routines []*ir.Routine
	for _, u := range sampled {
		if rs, err := parseUnit(u.src); err == nil {
			routines = append(routines, rs...)
		}
	}
	verifyProbe(r, routines)
	r.note("samples", "%d requests traced, %d span trees read, %d units (%d routines) profiled",
		len(traced), ss.n, len(sampled), len(routines))
	if err := writeTrace(r, recs); err != nil {
		r.fail("writing trace: %v", err)
	}
	return shots, nil
}

// reportServe sets the end-to-end metrics of a serving run.
func reportServe(r *run, p servePlan, shots []shot, lat []float64) {
	routines := 0
	var end time.Time
	var late []float64
	tierLat := map[string][]float64{}
	for _, s := range shots {
		late = append(late, ms(s.late))
		if done := s.due.Add(s.lat); done.After(end) {
			end = done
		}
		if s.err == nil && s.status == http.StatusOK {
			routines += p.units[s.unit].routines
			tierLat[s.tier] = append(tierLat[s.tier], ms(s.lat))
		}
	}
	r.set("routines_per_s", float64(routines)/end.Sub(shots[0].due).Seconds(), "routines/s")
	r.set("latency_p50_ms", percentile(lat, 0.50), "ms")
	r.set("latency_p90_ms", percentile(lat, 0.90), "ms")
	r.set("peak_rss_mb", peakRSSMB(), "MB")
	r.note("latency_p99_ms", "%.4f (%d samples)", percentile(lat, 0.99), len(lat))
	r.note("samples", "%d requests at %g req/s", len(shots), p.rate)
	r.note("loadgen.late_ms_p99", "%.3f", percentile(late, 0.99))
	r.note("loadgen.late_ms_max", "%.3f", percentile(late, 1))
	for _, tier := range []string{"mem", "disk"} {
		if l := tierLat[tier]; len(l) > 0 {
			r.note("server.hit_"+tier+"_ms_p50", "%.3f (%d hits)", percentile(l, 0.5), len(l))
		}
	}
	st := p.st.Stats()
	r.note("store", "%d entries, %.3f MB", st.Entries, float64(st.Bytes)/1e6)
}

// serverShares sums, over the traced requests whose span trees were read
// back, the client span and the server's own spans: the optimize root
// and its children.
type serverShares struct {
	n                                           int
	client, optimize, admission, store, compute time.Duration
	self                                        time.Duration // optimize minus its children: decode, JSON, pack, write
	admissionUS, storeUS, computeMS, selfUS     []float64
}

// add folds one request's spans in; false when its optimize span is
// missing.
func (ss *serverShares) add(client time.Duration, spans []obs.SpanRecord) bool {
	var root *obs.SpanRecord
	for i := range spans {
		if spans[i].Name == "optimize" {
			root = &spans[i]
		}
	}
	if root == nil {
		return false
	}
	var adm, sto, comp, children time.Duration
	for _, s := range spans {
		if s.ParentID != root.SpanID {
			continue
		}
		d := time.Duration(s.DurationNS)
		children += d
		switch s.Name {
		case "admission":
			adm += d
		case "store":
			sto += d
		case "compute":
			comp += d
		}
	}
	self := time.Duration(root.DurationNS) - children
	ss.n++
	ss.client += client
	ss.optimize += time.Duration(root.DurationNS)
	ss.admission += adm
	ss.store += sto
	ss.compute += comp
	ss.self += self
	ss.admissionUS = append(ss.admissionUS, float64(adm)/1e3)
	ss.storeUS = append(ss.storeUS, float64(sto)/1e3)
	ss.computeMS = append(ss.computeMS, ms(comp))
	ss.selfUS = append(ss.selfUS, float64(self)/1e3)
	return true
}

// report sets the server-layer metrics: each span's share of the traced
// request latency, with trace.unattributed_frac the share outside the
// server's handler (transport, client, load-generator lateness), so the
// rows sum to one; the share of requests the memory tier answered; and
// the store's bytes per entry. The p50s in microseconds are table notes.
func (ss serverShares) report(r *run, shots []shot, st *store.Store) {
	frac := func(d time.Duration) float64 {
		if ss.client == 0 {
			return 0
		}
		return float64(d) / float64(ss.client)
	}
	r.set("server.admission_frac", frac(ss.admission), "frac")
	r.set("server.store_frac", frac(ss.store), "frac")
	r.set("server.compute_frac", frac(ss.compute), "frac")
	r.set("server.self_frac", frac(ss.self), "frac")
	r.set("trace.unattributed_frac", frac(ss.client-ss.optimize), "frac")
	mem := 0
	for _, s := range shots {
		if s.tier == "mem" {
			mem++
		}
	}
	r.set("server.hit_mem_frac", float64(mem)/float64(max(len(shots), 1)), "frac")
	stats := st.Stats()
	r.set("store.bytes_per_entry", float64(stats.Bytes)/float64(max(stats.Entries, 1)), "bytes")
	r.note("server.admission_us_p50", "%.1f", percentile(ss.admissionUS, 0.5))
	r.note("server.store_us_p50", "%.1f", percentile(ss.storeUS, 0.5))
	r.note("server.compute_ms_p50", "%.3f", percentile(ss.computeMS, 0.5))
	r.note("server.self_us_p50", "%.1f", percentile(ss.selfUS, 0.5))
}

// noServer sets the server-layer metrics of a library workload, which
// runs no server: every share is zero.
func noServer(r *run) {
	for _, name := range []string{"server.admission_frac", "server.store_frac",
		"server.compute_frac", "server.self_frac", "server.hit_mem_frac"} {
		r.set(name, 0, "frac")
	}
	r.set("store.bytes_per_entry", 0, "bytes")
}

// readSpans reads back the server spans of a sample of the traced
// requests (see sampleEvery) through GET /v1/trace/{id}. It returns the folded shares, the
// client and server spans as records for the Chrome trace, and the
// distinct units of the sampled requests.
func readSpans(ctx context.Context, r *run, client *http.Client, url string, traced []shot,
	all []*unit) (serverShares, []obs.SpanRecord, []*unit) {
	var ss serverShares
	var recs []obs.SpanRecord
	var units []*unit
	seen := map[int]bool{}
	every := min(sampleEvery, max(1, len(traced)/sampleMin))
	for i := 0; i < len(traced); i += every {
		s := traced[i]
		if s.err != nil || s.status != http.StatusOK {
			continue
		}
		r.attempted++
		spans, err := fetchTrace(ctx, client, url, s.tc.TraceID)
		if err != nil || !ss.add(s.lat, spans) {
			r.fail("trace %s: no optimize span (%v)", s.tc.TraceID, err)
			continue
		}
		recs = append(recs, obs.SpanRecord{
			TraceID: s.tc.TraceID, SpanID: s.tc.SpanID, Name: "client", Node: "bench",
			StartUnixNS: s.due.UnixNano(), DurationNS: int64(s.lat),
		})
		recs = append(recs, spans...)
		if !seen[s.unit] {
			seen[s.unit] = true
			units = append(units, all[s.unit])
		}
	}
	return ss, recs, units
}

// fetchTrace reads one trace's spans from gvnd. The root span lands in
// the buffer just after the response is written, so a trace read too
// early is retried briefly.
func fetchTrace(ctx context.Context, client *http.Client, url, id string) ([]obs.SpanRecord, error) {
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/trace/"+id+"?scope=local", nil)
		if err != nil {
			return nil, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return nil, err
		}
		var tr obs.TraceExport
		err = json.NewDecoder(resp.Body).Decode(&tr)
		resp.Body.Close()
		if err == nil && resp.StatusCode == http.StatusOK {
			for _, s := range tr.Spans {
				if s.Name == "optimize" {
					return tr.Spans, nil
				}
			}
		}
		if attempt == 20 {
			return nil, fmt.Errorf("status %d: %v", resp.StatusCode, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// openStore opens a fresh disk store in a new temporary directory and
// returns it with the directory's removal.
func openStore() (*store.Store, func(), error) {
	dir, err := os.MkdirTemp("", "pgvnbench-store-")
	if err != nil {
		return nil, nil, err
	}
	st, err := store.Open(dir, storeMaxBytes)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	return st, func() { os.RemoveAll(dir) }, nil
}

// requests is how many requests a duration holds at rate.
func requests(d time.Duration, rate float64) int { return max(1, int(d.Seconds()*rate)) }

// runServeWarm reads from the cache tiers: decode, lookup, payload
// unpack, JSON and write, with no compute. The hot tier holds a quarter
// of the working set's packed bytes, so hits split between memory and
// disk, and an entry-size change moves the split.
func runServeWarm(ctx context.Context, r *run) error {
	client := newClient()
	defer client.CloseIdleConnections()
	p := servePlan{rate: warmRate, cache: "hit"}
	var g *gvnd
	cleanup, err := setup(r, func() (func(), error) {
		p.units = make([]*unit, max(4, int(warmUnits*r.opts.scale)))
		for i := range p.units {
			p.units[i] = newUnit(r.opts.seed, i, false, false)
		}
		st, removeDir, err := openStore()
		if err != nil {
			return nil, err
		}
		p.st = st
		fill, err := startGVND(st, nil, false)
		if err != nil {
			removeDir()
			return nil, err
		}
		p.expect, err = fillStore(ctx, client, fill.url, p.units)
		if serr := fill.stop(); err == nil {
			err = serr
		}
		if err != nil {
			removeDir()
			return nil, err
		}
		p.hot = cluster.NewHotTier(st.Stats().Bytes/4, nil)
		if g, err = startGVND(st, p.hot, false); err != nil {
			removeDir()
			return nil, err
		}
		return func() {
			if err := g.stop(); err != nil {
				r.fail("stopping gvnd: %v", err)
			}
			removeDir()
		}, nil
	})
	if err != nil {
		return err
	}
	defer cleanup()
	p.warm = requests(warmup(r), p.rate)
	p.seq = zipfSequence(r.opts.seed, p.warm+requests(window(r), p.rate), len(p.units))
	if _, err := serve(ctx, r, client, g, p); err != nil {
		return err
	}
	out, items := verifyBodies(ctx, r, p.units, p.expect)
	if !r.opts.trace {
		out.report(r)
	}
	checkSample(r, items)
	return nil
}

// fillStore sends every unit once, nproc at a time, and returns the
// response bodies: each must be a computed 200 (a miss).
func fillStore(ctx context.Context, client *http.Client, url string, units []*unit) ([][]byte, error) {
	bodies := make([][]byte, len(units))
	err := driver.ForEach(ctx, len(units), runtime.NumCPU(), func(i int) error {
		s := fire(ctx, client, url, i, units[i], time.Now(), false, nil)
		if s.err != nil {
			return s.err
		}
		if s.status != http.StatusOK || s.cache != "miss" {
			return fmt.Errorf("fill unit %d: status %d, cache %q", i, s.status, s.cache)
		}
		bodies[i] = s.body
		return nil
	})
	return bodies, err
}

// runServeCold writes beside reading: every request is a unit the server
// has never seen, with "pre": true, so each one computes the full
// pipeline, GVN-PRE included, packs the payload and puts it in the store.
// Half the units are SPEC-shaped and half come from the PRE family.
func runServeCold(ctx context.Context, r *run) error {
	client := newClient()
	defer client.CloseIdleConnections()
	p := servePlan{rate: coldRate, cache: "miss"}
	var g *gvnd
	cleanup, err := setup(r, func() (func(), error) {
		p.warm = requests(warmup(r), p.rate)
		n := p.warm + requests(window(r), p.rate)
		p.units = make([]*unit, n)
		p.seq = make([]int, n)
		for i := range p.units {
			p.units[i] = newUnit(r.opts.seed, i, i%2 == 1, true)
			p.seq[i] = i
		}
		st, removeDir, err := openStore()
		if err != nil {
			return nil, err
		}
		p.st = st
		p.hot = cluster.NewHotTier(coldHotBytes, nil)
		if g, err = startGVND(st, p.hot, false); err != nil {
			removeDir()
			return nil, err
		}
		return func() {
			if err := g.stop(); err != nil {
				r.fail("stopping gvnd: %v", err)
			}
			removeDir()
		}, nil
	})
	if err != nil {
		return err
	}
	defer cleanup()
	shots, err := serve(ctx, r, client, g, p)
	if err != nil {
		return err
	}
	// Failed requests are already counted; the rest must match the driver.
	var units []*unit
	var bodies [][]byte
	for _, s := range shots {
		if s.err == nil && s.status == http.StatusOK {
			units = append(units, p.units[s.unit])
			bodies = append(bodies, s.body)
		}
	}
	out, items := verifyBodies(ctx, r, units, bodies)
	if !r.opts.trace {
		out.report(r)
	}
	checkSample(r, items)
	return nil
}
