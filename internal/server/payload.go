package server

// Cache payloads. Every cache tier (the hot tier, the disk store) and
// the peer-fill wire hold the optimize response exactly as served,
// gzip'd, so a hit only decompresses and writes: nothing is re-rendered
// or re-encoded. Gzip rather than raw deflate because its CRC-32 and
// length trailer turn corrupt bytes into a miss instead of different
// bytes; the hot tier and the peer wire have no checksum of their own.

import (
	"bytes"
	"compress/gzip"
	"io"
	"sync"

	"pgvn/internal/cluster"
)

// gzipper is one compressor and the buffer it writes into. A fresh
// gzip.Writer allocates about 800 KB of tables, so both are pooled;
// the caller gets an exact-size copy of the output.
type gzipper struct {
	zw  *gzip.Writer
	buf bytes.Buffer
}

// gzipPool holds capacity only (DESIGN §17): the writer's destination
// is cleared on release, the buffer reset on acquire.
var gzipPool = sync.Pool{New: func() any {
	return &gzipper{zw: gzip.NewWriter(nil)}
}}

// encodePayload gzips a response body at the default level.
func encodePayload(body []byte) []byte {
	g := gzipPool.Get().(*gzipper)
	g.buf.Reset()
	g.zw.Reset(&g.buf)
	// Writes into a bytes.Buffer cannot fail.
	_, _ = g.zw.Write(body)
	_ = g.zw.Close()
	out := bytes.Clone(g.buf.Bytes())
	g.zw.Reset(nil)
	gzipPool.Put(g)
	return out
}

// gunzipper is one decompressor with the reader it reads a payload
// through and the buffer it writes the body into. A fresh gzip.Reader
// allocates about 45 KB of decompressor state, so all three are pooled;
// the caller gets an exact-size copy of the body.
type gunzipper struct {
	zr  gzip.Reader
	src bytes.Reader
	lim io.LimitedReader
	buf bytes.Buffer
}

// gunzipPool holds capacity only (DESIGN §17): the payload reader is
// emptied on release, the buffer reset and the decompressor Reset onto
// the next payload on acquire.
var gunzipPool = sync.Pool{New: func() any { return &gunzipper{} }}

// decodePayload returns the response body a cache payload holds.
// ok=false — malformed gzip, a failed CRC-32 or length check, or a body
// past cluster.MaxPayloadBytes — means the caller treats it as a miss.
func decodePayload(data []byte) ([]byte, bool) {
	g := gunzipPool.Get().(*gunzipper)
	body, ok := g.decode(data)
	g.release()
	return body, ok
}

// decode gunzips data into g's buffer and returns an exact-size copy.
func (g *gunzipper) decode(data []byte) ([]byte, bool) {
	g.src.Reset(data)
	if err := g.zr.Reset(&g.src); err != nil {
		return nil, false
	}
	g.lim = io.LimitedReader{R: &g.zr, N: cluster.MaxPayloadBytes + 1}
	g.buf.Reset()
	if _, err := g.buf.ReadFrom(&g.lim); err != nil || g.buf.Len() > cluster.MaxPayloadBytes {
		return nil, false
	}
	return bytes.Clone(g.buf.Bytes()), true
}

// release empties g's payload reader and returns g to the pool.
func (g *gunzipper) release() {
	g.src.Reset(nil)
	gunzipPool.Put(g)
}
