package server

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"

	"pgvn/internal/cluster"
	"pgvn/internal/obs"
	"pgvn/internal/server/store"
	"pgvn/internal/workload"
)

// maxPayloadRatio is the ceiling on a corpus response's encoded size as
// a fraction of its JSON. Scale-0.02 responses measure 0.30 (176.gcc,
// 14 KB) to 0.50 (197.parser, 842 bytes): a short body repeats little,
// and gzip's 18-byte frame weighs most on it. The ceiling leaves
// headroom for reshuffled output, not for a weaker encoding.
const maxPayloadRatio = 0.6

// TestPackPayloadRealResponses holds the encoding to its contract on
// real optimize responses: every corpus benchmark's response must
// decode byte-identically and shrink to at most maxPayloadRatio of its
// JSON, which is the store-size win this encoding exists for.
func TestPackPayloadRealResponses(t *testing.T) {
	s := New(Config{})
	worst := 0.0
	for _, b := range workload.Corpus(0.02) {
		body := postOptimize(t, s.Handler(), reqBody(t, benchSource(b), nil)).Body.Bytes()
		enc := encodePayload(body)
		got, ok := decodePayload(enc)
		if !ok || !bytes.Equal(got, body) {
			t.Fatalf("%s: decode is not byte-identical to the response (ok=%v)", b.Name, ok)
		}
		ratio := float64(len(enc)) / float64(len(body))
		if ratio > maxPayloadRatio {
			t.Fatalf("%s: encoded %d bytes = %.3f of the %d-byte response, ceiling %.2f",
				b.Name, len(enc), ratio, len(body), maxPayloadRatio)
		}
		worst = max(worst, ratio)
	}
	t.Logf("largest encoded/JSON ratio %.3f", worst)
}

// TestEncodePayloadConcurrent: handlers encode concurrently through the
// shared writer pool; each encoding must still round-trip to its own
// body (run under -race).
func TestEncodePayloadConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				body := []byte(strings.Repeat(fmt.Sprintf("routine %d.%d\n", g, i), 40+i))
				if got, ok := decodePayload(encodePayload(body)); !ok || !bytes.Equal(got, body) {
					t.Errorf("goroutine %d, body %d: round trip failed (ok=%v)", g, i, ok)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// flipBit returns a copy of data with one bit inverted.
func flipBit(data []byte, off int, bit byte) []byte {
	mut := bytes.Clone(data)
	mut[off] ^= bit
	return mut
}

// TestUnpackPayloadCorrupt flips every bit of an encoded response: each
// mutation must decode to exactly the original bytes (a flip in a
// header field gzip does not read back, such as the timestamp) or be a
// miss, never panic and never yield different bytes.
func TestUnpackPayloadCorrupt(t *testing.T) {
	s := New(Config{})
	body := postOptimize(t, s.Handler(), reqBody(t, tinySource, nil)).Body.Bytes()
	enc := encodePayload(body)
	misses := 0
	for off := range enc {
		for bit := byte(1); bit != 0; bit <<= 1 {
			got, ok := decodePayload(flipBit(enc, off, bit))
			if !ok {
				misses++
				continue
			}
			if !bytes.Equal(got, body) {
				t.Fatalf("offset %d bit %#x: decoded to different bytes", off, bit)
			}
		}
	}
	if misses == 0 {
		t.Fatal("no bit flip was a miss")
	}
}

// corruptHot replaces the hot-tier entry under key with a bit-flipped
// copy; the flip lands in the compressed stream.
func corruptHot(t *testing.T, hot *cluster.HotTier, key string) {
	t.Helper()
	stored, ok := hot.Get(key)
	if !ok {
		t.Fatal("no hot-tier entry to corrupt")
	}
	hot.Put(key, flipBit(stored, len(stored)/2, 0x10))
}

// checkRecomputed holds a request served over a corrupt entry to the
// miss contract: a 200 computed afresh, byte-identical to the clean
// response, one unpack error counted, and a valid entry left in hot.
func checkRecomputed(t *testing.T, status int, hdr http.Header, got, want []byte,
	reg *obs.Registry, hot *cluster.HotTier, key string) {
	t.Helper()
	if status != http.StatusOK || hdr.Get(CacheHeader) != "miss" {
		t.Fatalf("over a corrupt entry: status %d, cache %q; want 200 miss", status, hdr.Get(CacheHeader))
	}
	if !bytes.Equal(got, want) {
		t.Fatal("recomputed body differs from the clean response")
	}
	if n := reg.Counter("server.cache.unpack_errors").Value(); n != 1 {
		t.Fatalf("server.cache.unpack_errors = %d, want 1", n)
	}
	stored, ok := hot.Get(key)
	if !ok {
		t.Fatal("no hot-tier entry after the recompute")
	}
	if body, ok := decodePayload(stored); !ok || !bytes.Equal(body, want) {
		t.Fatal("hot tier does not hold a valid entry after the recompute")
	}
}

// TestCorruptHotPayloadIsMiss: a bit-flipped hot-tier entry is a miss
// that recomputes and overwrites it.
func TestCorruptHotPayloadIsMiss(t *testing.T) {
	reg := obs.NewRegistry()
	hot := cluster.NewHotTier(1<<20, reg)
	s := New(Config{Hot: hot, Metrics: reg})
	body := reqBody(t, tinySource, nil)
	clean := postOptimize(t, s.Handler(), body)
	if clean.Code != http.StatusOK {
		t.Fatal(clean.Code)
	}
	key := store.Key(s.Fingerprint(), tinySource)
	corruptHot(t, hot, key)
	rec := postOptimize(t, s.Handler(), body)
	checkRecomputed(t, rec.Code, rec.Header(), rec.Body.Bytes(), clean.Body.Bytes(), reg, hot, key)
}

// FuzzPayloadDecode holds decodePayload, the trust boundary of every
// cache tier and the peer wire, to its contract: any input is a miss
// or a body within cluster.MaxPayloadBytes, and it never panics.
func FuzzPayloadDecode(f *testing.F) {
	s := New(Config{})
	for _, b := range workload.Corpus(0.02)[:3] {
		body := postOptimize(f, s.Handler(), reqBody(f, benchSource(b), nil)).Body.Bytes()
		f.Add(encodePayload(body))
		f.Add(body)
	}
	f.Add(encodePayload(nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if body, ok := decodePayload(data); ok && len(body) > cluster.MaxPayloadBytes {
			t.Fatalf("decoded %d bytes, cap %d", len(body), cluster.MaxPayloadBytes)
		}
	})
}

// TestDecodePayloadPooled holds the decompressor pool to its purpose and
// to DESIGN §17. A warm decode allocates little beyond the body it
// returns (0.1 KB on the scale-0.02 corpus responses): a fresh
// gzip.Reader's ≈45 KB of state is what the pool saves, and the ceiling
// fails when that comes back. It leaves room for the race detector,
// where sync.Pool drops a quarter of its Puts and a decode reads ≈21 KB.
// A released decompressor holds no reference to the payload it read.
func TestDecodePayloadPooled(t *testing.T) {
	s := New(Config{})
	var encs [][]byte
	bodyBytes := 0
	for _, b := range workload.Corpus(0.02) {
		body := postOptimize(t, s.Handler(), reqBody(t, benchSource(b), nil)).Body.Bytes()
		encs = append(encs, encodePayload(body))
		bodyBytes += len(body)
	}
	decodeAll := func() {
		for _, enc := range encs {
			if _, ok := decodePayload(enc); !ok {
				t.Fatal("a clean payload did not decode")
			}
		}
	}
	decodeAll() // warm the pool
	const passes = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range passes {
		decodeAll()
	}
	runtime.ReadMemStats(&after)
	extra := (float64(after.TotalAlloc-before.TotalAlloc)/passes - float64(bodyBytes)) / float64(len(encs))
	t.Logf("%d payloads: %.1f KB allocated per decode beyond the body", len(encs), extra/1024)
	if extra > 30<<10 {
		t.Fatalf("decodePayload allocates %.1f KB per decode beyond the body, want ≤ 30 KB — "+
			"the decompressor is no longer pooled", extra/1024)
	}

	g := &gunzipper{}
	if _, ok := g.decode(encs[0]); !ok {
		t.Fatal("a clean payload did not decode")
	}
	g.release()
	if g.src.Size() != 0 {
		t.Fatalf("a released decompressor still reads a %d-byte payload", g.src.Size())
	}
}
