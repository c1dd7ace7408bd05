// Package cluster makes the gvnd optimization daemon horizontal: a
// fleet of nodes that partitions the content-address space with zero
// hot-path coordination.
//
// PGVN results are deterministic functions of (configuration, source),
// so two nodes can never disagree about the bytes stored under one
// content key — the only cluster-wide question is *who should hold
// them*, and a consistent-hash ring answers it without any shared
// state:
//
//   - Ring: each member contributes virtual-node points placed by
//     SHA-256 of its name, and a key is owned by the first point
//     clockwise of the key's own leading 64 bits. Membership changes
//     remap ~1/n of the key space and never move a key between two
//     surviving members.
//   - Membership is static (-peers) with lightweight health checking:
//     each node probes its peers' /healthz; a peer failing (or
//     draining) SuspectAfter consecutive probes is evicted from the
//     routing ring, and one healthy probe rejoins it.
//   - HotTier: an in-memory LRU-by-bytes payload cache layered above
//     the disk store.
//   - Flights: single-flight deduplication so concurrent identical
//     requests run the pipeline once.
//   - Peer fill: a non-owning node asks the owner for the cached
//     payload (GET /v1/peer/cache/{key}) under a short deadline before
//     falling back to local compute, so a warm fleet serves every
//     request from some cache tier no matter which node the client
//     picked.
//
// Every failure mode degrades to the single-node behaviour: a dead
// owner, a slow peer, or an empty ring just means computing locally.
package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pgvn/internal/obs"
)

// Defaults applied by New for zero Config fields.
const (
	DefaultHeartbeatInterval = 1 * time.Second
	DefaultSuspectAfter      = 3
	DefaultPeerFillTimeout   = 250 * time.Millisecond
)

// MaxPayloadBytes caps every peer response body this node reads and
// every cache payload gvnd decompresses, so neither a misbehaving peer
// nor a corrupt cache entry can balloon a node's memory.
const MaxPayloadBytes = 32 << 20

// Node is one fleet member: a routing name (the ring identity) and the
// base URL it serves on. With bare-URL peer specs the two coincide,
// which is what lets gvnload build the same ring from -targets.
type Node struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// ParsePeers parses a comma-separated peer spec. Each element is
// either "name=url" or a bare URL (which is its own name).
func ParsePeers(spec string) ([]Node, error) {
	var nodes []Node
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, found := strings.Cut(part, "=")
		if !found {
			url = part
		}
		if name == "" || url == "" {
			return nil, fmt.Errorf("cluster: malformed peer %q (want url or name=url)", part)
		}
		nodes = append(nodes, Node{Name: name, URL: url})
	}
	return nodes, nil
}

// Config configures a Cluster.
type Config struct {
	// Self is this node's name; it must match (or is added to) Peers.
	Self string
	// Peers is the static fleet membership, including or excluding
	// Self (it is added if absent, serving on its own name).
	Peers []Node
	// VNodes is the virtual-node count per member (0 = DefaultVNodes).
	VNodes int
	// HeartbeatInterval is the peer probe period (0 =
	// DefaultHeartbeatInterval).
	HeartbeatInterval time.Duration
	// SuspectAfter is how many consecutive failed probes evict a peer
	// from the routing ring (0 = DefaultSuspectAfter).
	SuspectAfter int
	// PeerFillTimeout bounds one peer cache fetch (0 =
	// DefaultPeerFillTimeout). Short by design: a slow peer must not
	// cost more than the local compute it would save.
	PeerFillTimeout time.Duration
	// Client performs peer HTTP traffic (nil = a client with sane
	// timeouts derived from the above).
	Client *http.Client
	// Metrics receives cluster.* instruments; nil disables.
	Metrics *obs.Registry
	// Logf, when non-nil, receives membership transitions.
	Logf func(format string, args ...any)
}

// PeerState is one peer's health as seen by this node, for /v1/stats.
type PeerState struct {
	Name  string `json:"name"`
	URL   string `json:"url"`
	Alive bool   `json:"alive"`
	Fails int    `json:"consecutive_fails,omitempty"`
}

// Cluster is one node's view of the fleet: the routing ring plus the
// health prober that keeps it honest. Create with New, start the
// prober with Start, stop it with Stop.
type Cluster struct {
	cfg  Config
	self Node
	ring *Ring

	mu    sync.Mutex
	peers map[string]*peerHealth // by name, excluding self

	started  atomic.Bool
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// peerHealth tracks one peer's probe history.
type peerHealth struct {
	node  Node
	alive bool
	fails int
}

// New builds a Cluster. The ring starts with every configured member
// alive; the prober adjusts it from there.
func New(cfg Config) (*Cluster, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: Self is required")
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = DefaultHeartbeatInterval
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = DefaultSuspectAfter
	}
	if cfg.PeerFillTimeout <= 0 {
		cfg.PeerFillTimeout = DefaultPeerFillTimeout
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: cfg.HeartbeatInterval + cfg.PeerFillTimeout}
	}
	c := &Cluster{
		cfg:   cfg,
		ring:  NewRing(cfg.VNodes),
		peers: make(map[string]*peerHealth),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	seen := map[string]bool{}
	for _, n := range cfg.Peers {
		if seen[n.Name] {
			return nil, fmt.Errorf("cluster: duplicate peer %q", n.Name)
		}
		seen[n.Name] = true
		if n.Name == cfg.Self {
			c.self = n
			continue
		}
		c.peers[n.Name] = &peerHealth{node: n, alive: true}
	}
	if c.self.Name == "" {
		c.self = Node{Name: cfg.Self, URL: cfg.Self}
	}
	c.ring.Add(c.self.Name)
	for name := range c.peers {
		c.ring.Add(name)
	}
	c.cfg.Metrics.Gauge("cluster.ring.members").Set(int64(c.ring.Size()))
	return c, nil
}

// Self returns this node's identity.
func (c *Cluster) Self() Node { return c.self }

// Owner returns the node currently owning key. ok is false only when
// the ring is empty, which cannot happen while self is alive.
func (c *Cluster) Owner(key string) (Node, bool) {
	name, ok := c.ring.Owner(key)
	if !ok {
		return Node{}, false
	}
	if name == c.self.Name {
		return c.self, true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if ph, ok := c.peers[name]; ok {
		return ph.node, true
	}
	return Node{}, false
}

// States returns every member's health (self first, then peers by
// name) for the /v1/stats cluster block.
func (c *Cluster) States() []PeerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	states := []PeerState{{Name: c.self.Name, URL: c.self.URL, Alive: true}}
	names := make([]string, 0, len(c.peers))
	for name := range c.peers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ph := c.peers[name]
		states = append(states, PeerState{Name: name, URL: ph.node.URL, Alive: ph.alive, Fails: ph.fails})
	}
	return states
}

// Alive returns the members currently in the routing ring.
func (c *Cluster) Alive() []string { return c.ring.Members() }

// AlivePeers returns the peers (excluding self) currently believed
// healthy, ordered by name — the fan-out set for cross-node trace
// assembly.
func (c *Cluster) AlivePeers() []Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	nodes := make([]Node, 0, len(c.peers))
	for _, ph := range c.peers {
		if ph.alive {
			nodes = append(nodes, ph.node)
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Name < nodes[j].Name })
	return nodes
}

// logf logs through Config.Logf when set.
func (c *Cluster) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// FetchPeer asks owner for the payload cached under key, bounded by
// PeerFillTimeout (and the caller's ctx). It returns ok=false on any
// miss, timeout or error — the caller falls back to local compute, so
// peer trouble can only cost the deadline, never correctness.
func (c *Cluster) FetchPeer(ctx context.Context, owner Node, key string) ([]byte, bool) {
	m := c.cfg.Metrics
	ctx, cancel := context.WithTimeout(ctx, c.cfg.PeerFillTimeout)
	defer cancel()
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimRight(owner.URL, "/")+"/v1/peer/cache/"+key, nil)
	if err != nil {
		m.Counter("cluster.peerfill.errors").Inc()
		return nil, false
	}
	// Propagate the enclosing trace: the owner opens its serving span as
	// a child of ours, so /v1/trace/{id} assembles both sides of the fill.
	if sc := obs.SpanFromContext(ctx).Context(); sc.Valid() {
		req.Header.Set(obs.TraceparentHeader, sc.Traceparent())
	}
	resp, err := c.cfg.Client.Do(req)
	m.Histogram("cluster.peerfill.latency_ns").Observe(int64(time.Since(start)))
	if err != nil {
		if ctx.Err() != nil {
			m.Counter("cluster.peerfill.timeouts").Inc()
		} else {
			m.Counter("cluster.peerfill.errors").Inc()
		}
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		m.Counter("cluster.peerfill.misses").Inc()
		return nil, false
	}
	payload, err := readBounded(resp.Body)
	if err != nil {
		m.Counter("cluster.peerfill.errors").Inc()
		return nil, false
	}
	m.Counter("cluster.peerfill.hits").Inc()
	return payload, true
}

// FetchTrace asks one peer for its locally retained spans of trace id
// (GET /v1/trace/{id}?scope=local — local scope, so assembly fan-out
// never recurses). ok=false means the peer could not answer; a peer
// that answers but holds no spans returns (nil, true), which assembly
// treats as an empty contribution rather than a failure.
func (c *Cluster) FetchTrace(ctx context.Context, n Node, id string) ([]obs.SpanRecord, bool) {
	m := c.cfg.Metrics
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimRight(n.URL, "/")+"/v1/trace/"+id+"?scope=local", nil)
	if err != nil {
		m.Counter("cluster.trace.fetch_errors").Inc()
		return nil, false
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		m.Counter("cluster.trace.fetch_errors").Inc()
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, true
	}
	if resp.StatusCode != http.StatusOK {
		m.Counter("cluster.trace.fetch_errors").Inc()
		return nil, false
	}
	data, err := readBounded(resp.Body)
	if err != nil {
		m.Counter("cluster.trace.fetch_errors").Inc()
		return nil, false
	}
	var te obs.TraceExport
	if json.Unmarshal(data, &te) != nil {
		m.Counter("cluster.trace.fetch_errors").Inc()
		return nil, false
	}
	return te.Spans, true
}

// healthzBody is the slice of a peer's /healthz response the prober
// reads.
type healthzBody struct {
	Status string `json:"status"`
}

// Probe runs one round of peer health checks, adjusting the ring.
// Start calls it on every heartbeat; tests call it directly for
// deterministic convergence.
func (c *Cluster) Probe(ctx context.Context) {
	c.mu.Lock()
	targets := make([]Node, 0, len(c.peers))
	for _, ph := range c.peers {
		targets = append(targets, ph.node)
	}
	c.mu.Unlock()
	for _, n := range targets {
		c.recordProbe(n.Name, c.probeOne(ctx, n))
	}
	c.cfg.Metrics.Gauge("cluster.ring.members").Set(int64(c.ring.Size()))
}

// probeOne reports whether one peer answered /healthz as serving (a
// draining peer is treated as down: it is about to stop accepting, so
// routing new work at it only manufactures errors).
func (c *Cluster) probeOne(ctx context.Context, n Node) bool {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.HeartbeatInterval)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimRight(n.URL, "/")+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	data, err := readBounded(resp.Body)
	if err != nil {
		return false
	}
	var hb healthzBody
	if json.Unmarshal(data, &hb) != nil {
		return false
	}
	return hb.Status == "ok"
}

// recordProbe folds one probe outcome into the peer's health and the
// ring.
func (c *Cluster) recordProbe(name string, healthy bool) {
	c.mu.Lock()
	ph, ok := c.peers[name]
	if !ok {
		c.mu.Unlock()
		return
	}
	var evict, rejoin bool
	if healthy {
		ph.fails = 0
		if !ph.alive {
			ph.alive = true
			rejoin = true
		}
	} else {
		ph.fails++
		if ph.alive && ph.fails >= c.cfg.SuspectAfter {
			ph.alive = false
			evict = true
		}
	}
	c.mu.Unlock()
	switch {
	case evict:
		c.ring.Remove(name)
		c.cfg.Metrics.Counter("cluster.ring.evictions").Inc()
		c.logf("cluster: peer %s down after %d failed probes, evicted from ring", name, c.cfg.SuspectAfter)
	case rejoin:
		c.ring.Add(name)
		c.cfg.Metrics.Counter("cluster.ring.rejoins").Inc()
		c.logf("cluster: peer %s healthy again, rejoined ring", name)
	}
}

// Start launches the heartbeat loop (idempotent; a one-node cluster
// has nothing to probe and starts no goroutine).
func (c *Cluster) Start() {
	if !c.started.CompareAndSwap(false, true) {
		return
	}
	if len(c.peers) == 0 {
		close(c.done)
		return
	}
	go func() {
		defer close(c.done)
		ticker := time.NewTicker(c.cfg.HeartbeatInterval)
		defer ticker.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-ticker.C:
				c.Probe(context.Background())
			}
		}
	}()
}

// Stop halts the heartbeat loop and waits for it to exit. Safe to call
// more than once, whether or not Start ran.
func (c *Cluster) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	if c.started.Load() {
		<-c.done
	}
}

// readBounded reads a peer response body capped at MaxPayloadBytes.
func readBounded(r io.Reader) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r, MaxPayloadBytes+1))
	if err != nil {
		return nil, err
	}
	if len(data) > MaxPayloadBytes {
		return nil, fmt.Errorf("cluster: peer body exceeds %d bytes", MaxPayloadBytes)
	}
	return data, nil
}
