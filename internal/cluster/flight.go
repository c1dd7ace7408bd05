package cluster

import (
	"context"
	"sync"
	"sync/atomic"
)

// Flights deduplicates concurrent identical computations: all requests
// for one content key share a single pipeline run. The first caller to
// Join a key becomes the leader and must call Finish exactly once;
// everyone else gets the same *Flight and Waits on it. Because the key
// already identifies the result byte-for-byte, sharing is always
// sound.
type Flights struct {
	mu sync.Mutex
	m  map[string]*Flight
}

// Flight is one in-progress computation.
type Flight struct {
	done    chan struct{}
	value   any
	waiters atomic.Int32
}

// NewFlights returns an empty group.
func NewFlights() *Flights {
	return &Flights{m: make(map[string]*Flight)}
}

// Join returns the flight for key and whether the caller is its
// leader. A leader must call Finish on every exit path, or followers
// block until their own contexts expire.
func (f *Flights) Join(key string) (*Flight, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if fl, ok := f.m[key]; ok {
		fl.waiters.Add(1)
		return fl, false
	}
	fl := &Flight{done: make(chan struct{})}
	f.m[key] = fl
	return fl, true
}

// Finish publishes the leader's result and wakes every follower. The
// key is forgotten first, so a request arriving after completion
// starts a fresh flight (and normally hits the cache instead).
func (f *Flights) Finish(key string, fl *Flight, value any) {
	f.mu.Lock()
	delete(f.m, key)
	f.mu.Unlock()
	fl.value = value
	close(fl.done)
}

// Wait blocks until the flight finishes or ctx expires.
func (fl *Flight) Wait(ctx context.Context) (any, error) {
	select {
	case <-fl.done:
		return fl.value, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Waiting reports how many followers have joined the flight for key
// (0 when no flight is in progress); it exists for tests that need to
// observe a coalescing point.
//
//pgvn:allow unreachable: the single-flight tests in cluster and server wait on it for their coalescing point
func (f *Flights) Waiting(key string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if fl, ok := f.m[key]; ok {
		return int(fl.waiters.Load())
	}
	return 0
}
