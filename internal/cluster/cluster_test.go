package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pgvn/internal/obs"
)

func TestParsePeers(t *testing.T) {
	nodes, err := ParsePeers("http://a:1, b=http://b:2 ,,http://c:3")
	if err != nil {
		t.Fatal(err)
	}
	want := []Node{
		{Name: "http://a:1", URL: "http://a:1"},
		{Name: "b", URL: "http://b:2"},
		{Name: "http://c:3", URL: "http://c:3"},
	}
	if len(nodes) != len(want) {
		t.Fatalf("parsed %d nodes, want %d", len(nodes), len(want))
	}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("node %d = %+v, want %+v", i, nodes[i], want[i])
		}
	}
	if _, err := ParsePeers("=http://x"); err == nil {
		t.Fatal("malformed peer accepted")
	}
}

func TestHotTierLRUByBytes(t *testing.T) {
	reg := obs.NewRegistry()
	tier := NewHotTier(100, reg)
	pay := func(n int) []byte { return make([]byte, n) }
	tier.Put("a", pay(40))
	tier.Put("b", pay(40))
	if _, ok := tier.Get("a"); !ok {
		t.Fatal("a missing")
	}
	// c (40 bytes) overflows the 100-byte budget; b is now LRU.
	tier.Put("c", pay(40))
	if _, ok := tier.Get("b"); ok {
		t.Fatal("b survived eviction though it was LRU")
	}
	if _, ok := tier.Get("a"); !ok {
		t.Fatal("a evicted though it was MRU")
	}
	st := tier.Stats()
	if st.Evictions != 1 || st.Entries != 2 || st.Bytes != 80 || st.MaxBytes != 100 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d", st.Hits, st.Misses)
	}
	if n := reg.Counter("cluster.hot.evictions").Value(); n != 1 {
		t.Fatalf("cluster.hot.evictions = %d", n)
	}
	// Updating a resident key replaces bytes without double counting.
	tier.Put("a", pay(10))
	if st := tier.Stats(); st.Bytes != 50 {
		t.Fatalf("bytes after update = %d, want 50", st.Bytes)
	}
}

// TestHotTierOversizedEntry: a payload larger than the whole budget is
// kept (serving its writer) and evicted by the next Put, mirroring the
// disk store's policy.
func TestHotTierOversizedEntry(t *testing.T) {
	tier := NewHotTier(10, nil)
	tier.Put("big", make([]byte, 100))
	if _, ok := tier.Get("big"); !ok {
		t.Fatal("oversized entry not retained for its writer")
	}
	tier.Put("small", make([]byte, 4))
	if _, ok := tier.Get("big"); ok {
		t.Fatal("oversized entry survived the next Put")
	}
}

func TestFlightsCoalesce(t *testing.T) {
	f := NewFlights()
	fl, leader := f.Join("k")
	if !leader {
		t.Fatal("first joiner not leader")
	}
	fl2, leader2 := f.Join("k")
	if leader2 || fl2 != fl {
		t.Fatal("second joiner did not coalesce")
	}
	if f.Waiting("k") != 1 {
		t.Fatalf("Waiting = %d", f.Waiting("k"))
	}
	var got atomic.Value
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, err := fl2.Wait(context.Background())
		if err != nil {
			t.Errorf("Wait: %v", err)
			return
		}
		got.Store(v)
	}()
	f.Finish("k", fl, "result")
	wg.Wait()
	if got.Load() != "result" {
		t.Fatalf("follower got %v", got.Load())
	}
	// After Finish the key starts a fresh flight.
	if _, leader := f.Join("k"); !leader {
		t.Fatal("post-finish joiner not a fresh leader")
	}
}

func TestFlightWaitHonorsContext(t *testing.T) {
	f := NewFlights()
	fl, _ := f.Join("k")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := fl.Wait(ctx); err == nil {
		t.Fatal("Wait ignored expired context")
	}
	f.Finish("k", fl, nil) // leader still finishes; no follower left
}

// probeServer is a fake peer whose health is toggleable.
type probeServer struct {
	srv     *httptest.Server
	healthy atomic.Bool
}

func newProbeServer(t *testing.T) *probeServer {
	t.Helper()
	p := &probeServer{}
	p.healthy.Store(true)
	p.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !p.healthy.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"status":"ok"}`))
	}))
	t.Cleanup(p.srv.Close)
	return p
}

// TestMembershipSuspicionAndRejoin drives the prober directly: a peer
// failing SuspectAfter consecutive probes leaves the ring; one healthy
// probe brings it back.
func TestMembershipSuspicionAndRejoin(t *testing.T) {
	peer := newProbeServer(t)
	reg := obs.NewRegistry()
	c, err := New(Config{
		Self:              "self",
		Peers:             []Node{{Name: "peer", URL: peer.srv.URL}},
		SuspectAfter:      3,
		HeartbeatInterval: 200 * time.Millisecond,
		Metrics:           reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	ctx := context.Background()
	c.Probe(ctx)
	if got := c.Alive(); len(got) != 2 {
		t.Fatalf("alive = %v", got)
	}
	peer.healthy.Store(false)
	c.Probe(ctx)
	c.Probe(ctx)
	if !slices.Contains(c.Alive(), "peer") {
		t.Fatal("peer evicted before SuspectAfter failures")
	}
	c.Probe(ctx)
	if slices.Contains(c.Alive(), "peer") {
		t.Fatal("peer not evicted after SuspectAfter failures")
	}
	if n := reg.Counter("cluster.ring.evictions").Value(); n != 1 {
		t.Fatalf("ring.evictions = %d", n)
	}
	if g := reg.Gauge("cluster.ring.members").Value(); g != 1 {
		t.Fatalf("ring.members gauge = %d", g)
	}
	states := c.States()
	if len(states) != 2 || states[1].Alive || states[1].Fails < 3 {
		t.Fatalf("states = %+v", states)
	}
	peer.healthy.Store(true)
	c.Probe(ctx)
	if !slices.Contains(c.Alive(), "peer") {
		t.Fatal("healthy peer did not rejoin")
	}
	if n := reg.Counter("cluster.ring.rejoins").Value(); n != 1 {
		t.Fatalf("ring.rejoins = %d", n)
	}
}

// TestDrainingPeerTreatedAsDown: a peer reporting "draining" is about
// to stop accepting, so the prober counts it as failed.
func TestDrainingPeerTreatedAsDown(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"status":"draining"}`))
	}))
	defer srv.Close()
	c, err := New(Config{
		Self:         "self",
		Peers:        []Node{{Name: "peer", URL: srv.URL}},
		SuspectAfter: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	c.Probe(context.Background())
	if slices.Contains(c.Alive(), "peer") {
		t.Fatal("draining peer kept in ring")
	}
}

// TestFetchPeer exercises the fill path: hit, miss, and deadline.
func TestFetchPeer(t *testing.T) {
	var slow atomic.Bool
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if slow.Load() {
			time.Sleep(300 * time.Millisecond)
		}
		key := strings.TrimPrefix(r.URL.Path, "/v1/peer/cache/")
		if key == "present" {
			w.Write([]byte("payload"))
			return
		}
		w.WriteHeader(http.StatusNotFound)
	}))
	defer owner.Close()
	reg := obs.NewRegistry()
	c, err := New(Config{
		Self:            "self",
		Peers:           []Node{{Name: "owner", URL: owner.URL}},
		PeerFillTimeout: 100 * time.Millisecond,
		Metrics:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	node := Node{Name: "owner", URL: owner.URL}
	ctx := context.Background()
	if p, ok := c.FetchPeer(ctx, node, "present"); !ok || string(p) != "payload" {
		t.Fatalf("fetch hit = %q, %v", p, ok)
	}
	if _, ok := c.FetchPeer(ctx, node, "absent"); ok {
		t.Fatal("miss reported as hit")
	}
	slow.Store(true)
	start := time.Now()
	if _, ok := c.FetchPeer(ctx, node, "present"); ok {
		t.Fatal("slow peer served past the deadline")
	}
	if e := time.Since(start); e > 250*time.Millisecond {
		t.Fatalf("peer fill ran %v past its 100ms deadline", e)
	}
	if n := reg.Counter("cluster.peerfill.hits").Value(); n != 1 {
		t.Fatalf("peerfill.hits = %d", n)
	}
	if n := reg.Counter("cluster.peerfill.misses").Value(); n != 1 {
		t.Fatalf("peerfill.misses = %d", n)
	}
	if n := reg.Counter("cluster.peerfill.timeouts").Value(); n != 1 {
		t.Fatalf("peerfill.timeouts = %d", n)
	}
	if reg.Snapshot().Histograms["cluster.peerfill.latency_ns"].Count != 3 {
		t.Fatal("latency histogram not fed")
	}
}

// TestClusterSelfNotInPeers: self is added implicitly when absent from
// the peer list.
func TestClusterSelfNotInPeers(t *testing.T) {
	c, err := New(Config{Self: "http://self:1", Peers: []Node{{Name: "p", URL: "http://p:2"}}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if got := c.Self(); got.Name != "http://self:1" || got.URL != "http://self:1" {
		t.Fatalf("self = %+v", got)
	}
	if got := c.Alive(); len(got) != 2 {
		t.Fatalf("alive = %v", got)
	}
	if _, err := New(Config{Peers: []Node{{Name: "p", URL: "u"}}}); err == nil {
		t.Fatal("missing Self accepted")
	}
	if _, err := New(Config{Self: "a", Peers: []Node{{Name: "p", URL: "u"}, {Name: "p", URL: "v"}}}); err == nil {
		t.Fatal("duplicate peer accepted")
	}
}

// TestOwnerResolvesURL: Owner returns the full node, and Owns agrees
// with it.
func TestOwnerResolvesURL(t *testing.T) {
	c, err := New(Config{
		Self:  "a",
		Peers: []Node{{Name: "a", URL: "http://a:1"}, {Name: "b", URL: "http://b:2"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	sawPeer, sawSelf := false, false
	for i := 0; i < 200 && !(sawPeer && sawSelf); i++ {
		k := testKey(i)
		n, ok := c.Owner(k)
		if !ok {
			t.Fatal("no owner")
		}
		switch n.Name {
		case "a":
			sawSelf = true
			if n.URL != "http://a:1" {
				t.Fatalf("self URL = %q", n.URL)
			}
		case "b":
			sawPeer = true
			if n.URL != "http://b:2" {
				t.Fatalf("peer URL = %q", n.URL)
			}
		}
	}
	if !sawPeer || !sawSelf {
		t.Fatal("200 keys never exercised both members")
	}
}
