package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"strconv"
	"sync"
)

// DefaultVNodes is the virtual-node count per member. 64 points per
// member keeps the largest/smallest ownership share within ~±20% of
// fair for small fleets while membership changes stay cheap (one sort
// of members×vnodes points).
const DefaultVNodes = 64

// Ring is a consistent-hash ring over named members. Each member
// contributes VNodes points placed by SHA-256 of "name#i", so a
// member's points — and therefore the bulk of the key space it owns —
// are stable across membership changes: adding or removing one member
// of n remaps only ~1/n of the keys, and never moves a key between two
// surviving members.
//
// Keys are the store's content addresses (SHA-256 hex of the driver
// fingerprint plus the request source); the routing point is the
// key's own leading 64 bits, so the ring literally partitions the
// content-address space.
type Ring struct {
	vnodes int

	mu      sync.RWMutex
	members map[string]bool
	points  []ringPoint // ascending by hash
}

// ringPoint is one virtual node: a position plus the member owning it.
type ringPoint struct {
	hash   uint64
	member string
}

// NewRing returns an empty ring with the given virtual-node count per
// member (<=0 selects DefaultVNodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return &Ring{vnodes: vnodes, members: make(map[string]bool)}
}

// pointHash places virtual node i of a member on the ring.
func pointHash(member string, i int) uint64 {
	h := sha256.Sum256([]byte(member + "#" + strconv.Itoa(i)))
	return binary.BigEndian.Uint64(h[:8])
}

// KeyPoint maps a key onto the ring. A well-formed store key is
// SHA-256 hex, so its own leading 64 bits are already uniform; any
// other string is hashed first.
func KeyPoint(key string) uint64 {
	if len(key) >= 16 {
		if b, err := hex.DecodeString(key[:16]); err == nil {
			return binary.BigEndian.Uint64(b)
		}
	}
	h := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(h[:8])
}

// Add inserts a member (idempotent).
func (r *Ring) Add(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.members[member] {
		return
	}
	r.members[member] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{hash: pointHash(member, i), member: member})
	}
	r.sortLocked()
}

// Remove deletes a member (idempotent).
func (r *Ring) Remove(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.members[member] {
		return
	}
	delete(r.members, member)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.member != member {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// sortLocked orders points ascending; ties (astronomically unlikely
// 64-bit collisions) break by member name so the ring is deterministic
// regardless of insertion order.
func (r *Ring) sortLocked() {
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
}

// Members returns the current members, sorted.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ms := make([]string, 0, len(r.members))
	for m := range r.members {
		ms = append(ms, m)
	}
	sort.Strings(ms)
	return ms
}

// Size returns the member count.
func (r *Ring) Size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}

// Owner returns the member owning key: the first point clockwise from
// the key's position (wrapping). ok is false on an empty ring.
func (r *Ring) Owner(key string) (member string, ok bool) {
	p := KeyPoint(key)
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return "", false
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= p })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].member, true
}
