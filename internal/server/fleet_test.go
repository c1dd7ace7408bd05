package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pgvn/internal/cluster"
	"pgvn/internal/obs"
	"pgvn/internal/server/store"
	"pgvn/internal/workload"
)

// fleetNode is one in-process gvnd shard plus the test's view of it.
type fleetNode struct {
	srv      *Server
	cl       *cluster.Cluster
	reg      *obs.Registry
	url      string
	pipeline atomic.Int64 // pipeline entries observed via hookBeforeRun
}

// fleet is an N-node in-process cluster with real listeners, real
// heartbeats and per-node disk stores.
type fleet struct {
	nodes []*fleetNode
	ring  *cluster.Ring // the client-side ring over all node URLs
	fp    string        // the shared default-config fingerprint
}

// newFleet boots n nodes. Every node gets its own store directory, hot
// tier and registry; peers are named by their base URLs, which is also
// what the client-side ring routes on.
func newFleet(t *testing.T, n int) *fleet {
	t.Helper()
	lns := make([]net.Listener, n)
	peers := make([]cluster.Node, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		url := "http://" + ln.Addr().String()
		peers[i] = cluster.Node{Name: url, URL: url}
	}
	f := &fleet{ring: cluster.NewRing(0)}
	for _, p := range peers {
		f.ring.Add(p.Name)
	}
	for i := range lns {
		reg := obs.NewRegistry()
		st, err := store.Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := cluster.New(cluster.Config{
			Self:              peers[i].Name,
			Peers:             peers,
			HeartbeatInterval: 25 * time.Millisecond,
			SuspectAfter:      2,
			PeerFillTimeout:   2 * time.Second, // generous: a slow CI box must not flake the fill path
			Metrics:           reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		node := &fleetNode{cl: cl, reg: reg, url: peers[i].URL}
		node.srv = New(Config{
			Store:   st,
			Hot:     cluster.NewHotTier(64<<20, reg),
			Cluster: cl,
			Metrics: reg,
			Spans:   obs.NewSpans(peers[i].Name, 0, reg),
		})
		node.srv.hookBeforeRun = func(context.Context, int) { node.pipeline.Add(1) }
		node.srv.Serve(lns[i])
		cl.Start()
		f.nodes = append(f.nodes, node)
		t.Cleanup(func() {
			cl.Stop()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = node.srv.Shutdown(ctx)
		})
	}
	f.fp = f.nodes[0].srv.Fingerprint()
	return f
}

// owner routes a source the way gvnload does: the store key over the
// shared fingerprint, looked up in the client-side ring restricted to
// live targets.
func (f *fleet) owner(t *testing.T, src string, live []*fleetNode) *fleetNode {
	t.Helper()
	key := store.Key(f.fp, src)
	ring := cluster.NewRing(0)
	for _, n := range live {
		ring.Add(n.url)
	}
	name, ok := ring.Owner(key)
	if !ok {
		t.Fatal("empty client ring")
	}
	for _, n := range live {
		if n.url == name {
			return n
		}
	}
	t.Fatalf("owner %q not among live nodes", name)
	return nil
}

// post sends one optimize request over real HTTP.
func (f *fleet) post(t *testing.T, node *fleetNode, src string) (int, http.Header, []byte) {
	t.Helper()
	body, err := json.Marshal(map[string]any{"source": src})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(node.url+"/v1/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post %s: %v", node.url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, data
}

// totalPipeline sums pipeline entries across the fleet.
func (f *fleet) totalPipeline() int64 {
	var n int64
	for _, node := range f.nodes {
		n += node.pipeline.Load()
	}
	return n
}

// corpusSources renders the 10 preset benchmarks as request sources.
func corpusSources(t *testing.T) []string {
	t.Helper()
	corpus := workload.Corpus(0.02)
	if len(corpus) != 10 {
		t.Fatalf("corpus has %d presets, want 10", len(corpus))
	}
	srcs := make([]string, len(corpus))
	for i, b := range corpus {
		srcs[i] = workload.CorpusSource(b)
	}
	return srcs
}

// TestFleetPresetsMatchSingleNode is the cluster acceptance check: a
// 3-node fleet answers all 10 presets byte-identically to a
// single-node gvnd (itself pinned byte-identical to gvnopt), and a
// warm second pass is served entirely from the hot tier with zero
// additional pipeline runs.
func TestFleetPresetsMatchSingleNode(t *testing.T) {
	f := newFleet(t, 3)
	single := New(Config{})
	srcs := corpusSources(t)

	cold := make([][]byte, len(srcs))
	for i, src := range srcs {
		node := f.owner(t, src, f.nodes)
		status, hdr, body := f.post(t, node, src)
		if status != http.StatusOK {
			t.Fatalf("preset %d: status %d: %s", i, status, body)
		}
		if got := hdr.Get(RoutingHeader); got != "owner" {
			t.Fatalf("preset %d: routed to %s but routing = %q (client/server ring mismatch)",
				i, node.url, got)
		}
		if got := hdr.Get(CacheHeader); got != "miss" {
			t.Fatalf("preset %d: cold disposition = %q", i, got)
		}
		rec := postOptimize(t, single.Handler(), reqBody(t, src, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("preset %d single-node: %d", i, rec.Code)
		}
		if !bytes.Equal(body, rec.Body.Bytes()) {
			t.Fatalf("preset %d: fleet response differs from single-node gvnd (%d vs %d bytes)",
				i, len(body), len(rec.Body.Bytes()))
		}
		cold[i] = body
	}
	ranCold := f.totalPipeline()
	if ranCold == 0 {
		t.Fatal("cold pass never entered the pipeline")
	}
	for i, src := range srcs {
		node := f.owner(t, src, f.nodes)
		status, hdr, body := f.post(t, node, src)
		if status != http.StatusOK || !bytes.Equal(body, cold[i]) {
			t.Fatalf("preset %d: warm response differs (status %d)", i, status)
		}
		if disp, tier := hdr.Get(CacheHeader), hdr.Get(CacheTierHeader); disp != "hit" || tier != "mem" {
			t.Fatalf("preset %d: warm disposition = %q tier %q, want hot-tier hit", i, disp, tier)
		}
	}
	if ran := f.totalPipeline(); ran != ranCold {
		t.Fatalf("warm pass re-ran the pipeline (%d -> %d runs)", ranCold, ran)
	}
}

// TestFleetPeerFill: a non-owner asked for a key warm on its owner
// proxies the owner's copy instead of computing.
func TestFleetPeerFill(t *testing.T) {
	f := newFleet(t, 3)
	src := corpusSources(t)[0]
	ownerNode := f.owner(t, src, f.nodes)
	status, _, want := f.post(t, ownerNode, src)
	if status != http.StatusOK {
		t.Fatalf("warm-up: %d", status)
	}
	var other *fleetNode
	for _, n := range f.nodes {
		if n != ownerNode {
			other = n
			break
		}
	}
	ranBefore := f.totalPipeline()
	status, hdr, got := f.post(t, other, src)
	if status != http.StatusOK {
		t.Fatalf("non-owner: %d: %s", status, got)
	}
	if disp, tier := hdr.Get(CacheHeader), hdr.Get(CacheTierHeader); disp != "hit" || tier != "peer" {
		t.Fatalf("non-owner disposition = %q tier %q, want peer fill", disp, tier)
	}
	if hdr.Get(RoutingHeader) != "remote" {
		t.Fatalf("routing = %q, want remote", hdr.Get(RoutingHeader))
	}
	if !bytes.Equal(got, want) {
		t.Fatal("peer-filled payload differs from the owner's")
	}
	if ran := f.totalPipeline(); ran != ranBefore {
		t.Fatal("peer fill ran the pipeline")
	}
	if n := other.reg.Counter("cluster.peerfill.hits").Value(); n != 1 {
		t.Fatalf("cluster.peerfill.hits = %d", n)
	}
	if n := ownerNode.reg.Counter("cluster.peer_serve.hits").Value(); n != 1 {
		t.Fatalf("cluster.peer_serve.hits = %d", n)
	}
	// The non-owner keeps the bytes hot in memory but does not persist
	// them: one durable copy per key.
	if other.srv.cfg.Store.Len() != 0 {
		t.Fatal("non-owner persisted a peer-filled payload")
	}
	// And serves the repeat from its own hot tier.
	_, hdr, _ = f.post(t, other, src)
	if tier := hdr.Get(CacheTierHeader); tier != "mem" {
		t.Fatalf("repeat tier = %q, want mem", tier)
	}
}

// TestFleetCorruptPeerPayloadIsMiss: a bit-flipped payload on the
// peer-fill wire is a peer miss. The non-owner computes, serves the
// clean bytes and fills its hot tier with a valid entry.
func TestFleetCorruptPeerPayloadIsMiss(t *testing.T) {
	f := newFleet(t, 2)
	src := corpusSources(t)[0]
	ownerNode := f.owner(t, src, f.nodes)
	status, _, want := f.post(t, ownerNode, src)
	if status != http.StatusOK {
		t.Fatalf("warm-up: %d", status)
	}
	other := f.nodes[0]
	if other == ownerNode {
		other = f.nodes[1]
	}
	key := store.Key(f.fp, src)
	corruptHot(t, ownerNode.srv.cfg.Hot, key)
	status, hdr, got := f.post(t, other, src)
	checkRecomputed(t, status, hdr, got, want, other.reg, other.srv.cfg.Hot, key)
	if other.pipeline.Load() != 1 {
		t.Fatalf("non-owner pipeline runs = %d, want 1", other.pipeline.Load())
	}
}

// TestFleetPeerMissFallsBackToCompute: a cold key on a non-owner whose
// owner is also cold computes locally after the peer miss.
func TestFleetPeerMissFallsBackToCompute(t *testing.T) {
	f := newFleet(t, 3)
	src := corpusSources(t)[1]
	ownerNode := f.owner(t, src, f.nodes)
	var other *fleetNode
	for _, n := range f.nodes {
		if n != ownerNode {
			other = n
			break
		}
	}
	status, hdr, _ := f.post(t, other, src)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if disp := hdr.Get(CacheHeader); disp != "miss" {
		t.Fatalf("disposition = %q, want miss (computed locally)", disp)
	}
	if other.pipeline.Load() != 1 {
		t.Fatalf("non-owner pipeline runs = %d, want 1", other.pipeline.Load())
	}
	if n := other.reg.Counter("cluster.peerfill.misses").Value(); n != 1 {
		t.Fatalf("cluster.peerfill.misses = %d", n)
	}
}

// TestFleetTracePropagation is the tracing acceptance check: one cold
// request against a 3-node fleet, sent to a non-owner so the peer-fill
// hop fires, must yield a single assembled trace whose spans cover
// admission, store lookup, the peer fill, and the fixpoint stages —
// recorded across at least two distinct nodes and readable from any of
// them via /v1/trace/{id}.
func TestFleetTracePropagation(t *testing.T) {
	f := newFleet(t, 3)
	src := corpusSources(t)[2]
	ownerNode := f.owner(t, src, f.nodes)
	var other *fleetNode
	for _, n := range f.nodes {
		if n != ownerNode {
			other = n
			break
		}
	}
	// Cold everywhere: the non-owner asks its owner (peer miss, the
	// owner still serves the probe) and then computes locally, so the
	// one trace holds both the RPC hop and the full fixpoint pipeline.
	status, hdr, body := f.post(t, other, src)
	if status != http.StatusOK {
		t.Fatalf("cold post: %d: %s", status, body)
	}
	tid := hdr.Get(TraceHeader)
	if !obs.ValidTraceID(tid) {
		t.Fatalf("%s = %q, want a valid trace id", TraceHeader, tid)
	}

	// Assemble from a node that served neither hop: the fan-out must
	// gather the spans from both participants.
	var third *fleetNode
	for _, n := range f.nodes {
		if n != ownerNode && n != other {
			third = n
			break
		}
	}
	resp, err := http.Get(third.url + "/v1/trace/" + tid)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status = %d: %s", resp.StatusCode, raw)
	}
	var te obs.TraceExport
	if err := json.Unmarshal(raw, &te); err != nil {
		t.Fatal(err)
	}
	if te.TraceID != tid {
		t.Fatalf("assembled trace id = %q, want %q", te.TraceID, tid)
	}
	if len(te.Nodes) < 2 {
		t.Fatalf("trace spans %d node(s) %v, want >= 2", len(te.Nodes), te.Nodes)
	}
	names := map[string]string{} // span name -> recording node
	for _, rec := range te.Spans {
		if rec.TraceID != tid {
			t.Fatalf("span %q belongs to trace %q", rec.Name, rec.TraceID)
		}
		names[rec.Name] = rec.Node
	}
	for _, want := range []string{"optimize", "admission", "store", "peerfill", "compute", "fixpoint"} {
		if _, ok := names[want]; !ok {
			t.Errorf("assembled trace is missing a %q span: %v", want, names)
		}
	}
	// The serving side of the hop is recorded by the owner, under the
	// same trace: that is the cross-node join.
	if node, ok := names["peer.serve"]; !ok || node != ownerNode.url {
		t.Errorf("peer.serve span node = %q, %v; want recorded by owner %s", node, ok, ownerNode.url)
	}
	if node := names["peerfill"]; node != other.url {
		t.Errorf("peerfill span node = %q, want requesting node %s", node, other.url)
	}
}

// TestFleetChaos is the satellite chaos test: boot 3 nodes, warm them
// over the preset corpus, kill one mid-fleet, and assert the survivors
// converge (the dead node leaves both rings) and then serve the whole
// corpus with zero 5xx — re-owned keys recompute once, everything else
// stays warm, and a second survivor pass is 100% hits, which is at
// least the warm single-node baseline.
func TestFleetChaos(t *testing.T) {
	f := newFleet(t, 3)
	srcs := corpusSources(t)
	for i, src := range srcs {
		if status, _, body := f.post(t, f.owner(t, src, f.nodes), src); status != http.StatusOK {
			t.Fatalf("warm-up %d: %d: %s", i, status, body)
		}
	}

	// A traced request through the doomed node for a key a survivor
	// owns: the peer-fill hop leaves spans on the survivor, so the
	// trace outlives its entry node.
	dead := f.nodes[2]
	var tracedID string
	for _, src := range srcs {
		if f.owner(t, src, f.nodes) == dead {
			continue
		}
		status, hdr, body := f.post(t, dead, src)
		if status != http.StatusOK {
			t.Fatalf("pre-kill traced post: %d: %s", status, body)
		}
		tracedID = hdr.Get(TraceHeader)
		break
	}
	if !obs.ValidTraceID(tracedID) {
		t.Fatalf("pre-kill trace id = %q, want valid", tracedID)
	}

	// Kill node 2: drain it for real (listener gone, like SIGTERM).
	dead.cl.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := dead.srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	survivors := f.nodes[:2]

	// Ring convergence: every survivor evicts the dead peer after
	// SuspectAfter failed heartbeats.
	deadline := time.Now().Add(10 * time.Second)
	for _, n := range survivors {
		for n.cl.Ring().Has(dead.url) {
			if time.Now().After(deadline) {
				t.Fatalf("node %s never evicted the dead peer", n.url)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// The pre-kill trace still assembles: the entry node's spans died
	// with it, but the survivor that served the peer-fill hop holds its
	// half, and assembly tolerates the missing peer.
	resp, err := http.Get(survivors[0].url + "/v1/trace/" + tracedID)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-kill trace assembly = %d: %s", resp.StatusCode, raw)
	}
	var te obs.TraceExport
	if err := json.Unmarshal(raw, &te); err != nil {
		t.Fatal(err)
	}
	if len(te.Spans) == 0 {
		t.Fatal("post-kill trace assembled zero spans from the survivors")
	}
	for _, rec := range te.Spans {
		if rec.Node == dead.url {
			t.Fatalf("span %q claims the dead node recorded it", rec.Name)
		}
	}

	// Post-convergence: the full corpus against the survivors, routed
	// by the shrunken client ring. Zero 5xx tolerated.
	hits := 0
	for i, src := range srcs {
		status, hdr, body := f.post(t, f.owner(t, src, survivors), src)
		if status >= 500 {
			t.Fatalf("5xx after convergence on preset %d: %d: %s", i, status, body)
		}
		if status != http.StatusOK {
			t.Fatalf("preset %d: %d: %s", i, status, body)
		}
		if hdr.Get(CacheHeader) == "hit" {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("survivors lost every warm key")
	}
	// Second survivor pass: everything re-owned has been recomputed, so
	// the fleet is fully warm again — hit ratio 1.0, ≥ the single-node
	// warm baseline.
	for i, src := range srcs {
		status, hdr, _ := f.post(t, f.owner(t, src, survivors), src)
		if status != http.StatusOK || hdr.Get(CacheHeader) != "hit" {
			t.Fatalf("preset %d not warm after recovery: status %d, disposition %q",
				i, status, hdr.Get(CacheHeader))
		}
	}
}

// TestSingleFlightCoalesces: concurrent identical requests run the
// pipeline once; followers share the leader's bytes.
func TestSingleFlightCoalesces(t *testing.T) {
	reg := obs.NewRegistry()
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Store: st, Hot: cluster.NewHotTier(1<<20, reg), Metrics: reg, MaxConcurrent: 8})
	var runs atomic.Int64
	release := make(chan struct{})
	s.hookBeforeRun = func(ctx context.Context, _ int) {
		runs.Add(1)
		<-release
	}
	const followers = 3
	body := reqBody(t, tinySource, nil)
	results := make(chan struct {
		code int
		disp string
		tier string
		body string
	}, followers+1)
	var wg sync.WaitGroup
	for i := 0; i < followers+1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := postOptimize(t, s.Handler(), body)
			results <- struct {
				code int
				disp string
				tier string
				body string
			}{rec.Code, rec.Header().Get(CacheHeader), rec.Header().Get(CacheTierHeader), rec.Body.String()}
		}()
	}
	// Wait until the leader is inside the pipeline and every follower
	// has joined its flight, then let the leader finish.
	key := store.Key(New(Config{}).Fingerprint(), tinySource)
	deadline := time.Now().Add(10 * time.Second)
	for runs.Load() < 1 || s.flights.Waiting(key) < followers {
		if time.Now().After(deadline) {
			t.Fatalf("coalescing point never reached: runs %d, waiting %d",
				runs.Load(), s.flights.Waiting(key))
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	close(results)
	var misses, coalesced int
	var first string
	for r := range results {
		if r.code != http.StatusOK {
			t.Fatalf("status %d", r.code)
		}
		if first == "" {
			first = r.body
		} else if r.body != first {
			t.Fatal("coalesced responses differ")
		}
		switch {
		case r.disp == "miss":
			misses++
		case r.disp == "hit" && r.tier == "coalesced":
			coalesced++
		default:
			t.Fatalf("unexpected disposition %q tier %q", r.disp, r.tier)
		}
	}
	if runs.Load() != 1 {
		t.Fatalf("pipeline ran %d times for %d identical requests", runs.Load(), followers+1)
	}
	if misses != 1 || coalesced != followers {
		t.Fatalf("misses %d coalesced %d, want 1 and %d", misses, coalesced, followers)
	}
}

// TestPeerEndpointNeverComputes: a peer cache read for an uncached key
// is a 404, and malformed keys are rejected.
func TestPeerEndpointNeverComputes(t *testing.T) {
	reg := obs.NewRegistry()
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Store: st, Metrics: reg})
	var runs atomic.Int64
	s.hookBeforeRun = func(context.Context, int) { runs.Add(1) }
	get := func(path string) (int, []byte) {
		req, _ := http.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		return rec.Code, rec.Body.Bytes()
	}
	key := store.Key(s.Fingerprint(), tinySource)
	if code, body := get("/v1/peer/cache/" + key); code != http.StatusNotFound {
		t.Fatalf("cold peer read = %d: %s", code, body)
	}
	if code, _ := get("/v1/peer/cache/not-a-key"); code != http.StatusBadRequest {
		t.Fatalf("malformed key accepted: %d", code)
	}
	if runs.Load() != 0 {
		t.Fatalf("peer endpoint ran the pipeline %d times", runs.Load())
	}
	// Warm via optimize, then the peer read serves the cached payload.
	// The peer wire carries the gzip'd form and must decode to exactly
	// the bytes the client got.
	rec := postOptimize(t, s.Handler(), reqBody(t, tinySource, nil))
	if rec.Code != http.StatusOK {
		t.Fatal(rec.Code)
	}
	code, body := get("/v1/peer/cache/" + key)
	if isGzip := bytes.HasPrefix(body, []byte{0x1f, 0x8b}); code != http.StatusOK || !isGzip {
		t.Fatalf("warm peer read = %d, gzip = %v", code, isGzip)
	}
	got, ok := decodePayload(body)
	if !ok || !bytes.Equal(got, rec.Body.Bytes()) {
		t.Fatalf("peer payload does not decode to the client response (ok=%v)", ok)
	}
	if n := reg.Counter("cluster.peer_serve.hits").Value(); n != 1 {
		t.Fatalf("peer_serve.hits = %d", n)
	}
}

// TestPeerAdmissionSeparateFromUsers: the peer gate sheds peer reads
// with 429 while user traffic still flows.
func TestPeerAdmissionSeparateFromUsers(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Metrics: reg, PeerMaxConcurrent: 1})
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.hookPeerServe = func() {
		once.Do(func() { close(entered) })
		<-release
	}
	key := strings.Repeat("ab", 32)
	go func() {
		req, _ := http.NewRequest(http.MethodGet, "/v1/peer/cache/"+key, nil)
		s.Handler().ServeHTTP(httptest.NewRecorder(), req)
	}()
	<-entered
	req, _ := http.NewRequest(http.MethodGet, "/v1/peer/cache/"+key, nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second peer read = %d, want 429", rec.Code)
	}
	if n := reg.Counter("cluster.peer_serve.rejected").Value(); n != 1 {
		t.Fatalf("peer_serve.rejected = %d", n)
	}
	// User traffic is not gated by the saturated peer gate.
	if rec := postOptimize(t, s.Handler(), reqBody(t, tinySource, nil)); rec.Code != http.StatusOK {
		t.Fatalf("user request starved by peer saturation: %d", rec.Code)
	}
	close(release)
}
