// Package store is gvnd's persistent result cache: a content-addressed,
// size-capped, crash-tolerant mapping from request identity to response
// payload, kept on disk so a restarted daemon starts warm.
//
//   - Keys are SHA-256 hex of the driver configuration fingerprint plus
//     the request source — the same identity the in-memory driver cache
//     uses, so a disk hit is only possible when re-running the pipeline
//     would produce byte-identical output.
//   - Writes are atomic: the entry is written to a temp file in the
//     store directory and renamed into place, so a crash mid-write can
//     leave garbage temp files (reaped on Open) but never a truncated
//     entry under a valid name.
//   - Every entry embeds a checksum of its payload; Get verifies it (and
//     that the entry's recorded key matches its filename) before serving,
//     deleting corrupt files instead of returning them.
//   - Entries are written in the binary v2 container. Files of the
//     retired v1 JSON container are removed on Open, like temp files.
//   - A byte budget is enforced by LRU eviction. Access order is kept in
//     memory and persisted to an index file by Flush — periodically via
//     FlushEvery and as the last step of gvnd's graceful drain — so a
//     crash loses at most one flush interval of access-order updates;
//     when the index is missing or stale the store falls back to file
//     modification times, so losing the index costs eviction precision,
//     never correctness.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// The index's schema tag lets a future layout change be detected
// instead of misread. Entries are binary v2 containers (varint-framed,
// raw checksum and payload); a v1 entry was a JSON file.
const (
	indexSchema = "gvnd-store-index/v1"
	indexFile   = "index.json"
	tmpPrefix   = ".tmp-"
	entryExt    = ".bin"
	v1Ext       = ".json"
)

// entryMagic opens every binary v2 entry file.
var entryMagic = [4]byte{'G', 'V', 'N', 'S'}

// entryVersion is the binary container version.
const entryVersion = 2

// Key returns the content address for a configuration fingerprint and a
// request source: SHA-256 over both, NUL-separated so the two can never
// alias.
func Key(fingerprint, source string) string {
	h := sha256.New()
	h.Write([]byte(fingerprint))
	h.Write([]byte{0})
	h.Write([]byte(source))
	return hex.EncodeToString(h.Sum(nil))
}

// entry is the in-memory index record for one on-disk payload.
type entry struct {
	size  int64
	atime int64 // logical access clock, larger = more recent
}

// indexState is the on-disk form of the access-order index.
type indexState struct {
	Schema string           `json:"schema"`
	Clock  int64            `json:"clock"`
	Atimes map[string]int64 `json:"atimes"`
}

// Stats is a snapshot of the store's lifetime activity plus its current
// occupancy.
type Stats struct {
	Hits, Misses, Puts, Evictions, Corrupt int64
	Entries                                int
	Bytes, MaxBytes                        int64
}

// Store is a concurrency-safe persistent result cache rooted at one
// directory. The zero value is not usable; call Open.
type Store struct {
	dir      string
	maxBytes int64

	mu      sync.Mutex
	entries map[string]*entry
	total   int64
	clock   int64
	stats   Stats
	dirty   bool // access order changed since the last Flush
}

// Open loads (creating if needed) the store rooted at dir. maxBytes <= 0
// means unlimited. Stale temp files from a crashed writer and v1 JSON
// entries are removed; entries that fail basic shape checks are ignored
// (Get removes them on first touch). If reloading leaves the store over
// budget — the cap was lowered between runs — the oldest entries are
// evicted immediately.
func Open(dir string, maxBytes int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:      dir,
		maxBytes: maxBytes,
		entries:  make(map[string]*entry),
	}
	s.stats.MaxBytes = maxBytes
	atimes := s.loadIndex()
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, de := range des {
		name := de.Name()
		if de.IsDir() {
			continue
		}
		if strings.HasPrefix(name, tmpPrefix) {
			os.Remove(filepath.Join(dir, name)) // crashed writer leftovers
			continue
		}
		if key, ok := strings.CutSuffix(name, v1Ext); ok && ValidKey(key) {
			os.Remove(filepath.Join(dir, name)) // retired v1 container
			continue
		}
		key, ok := strings.CutSuffix(name, entryExt)
		if !ok || !ValidKey(key) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		at, ok := atimes[key]
		if !ok {
			// No index record: order by mtime so pre-index entries still
			// evict oldest-first. ModTime UnixNano values are far above
			// any logical clock, so indexed entries always rank older —
			// acceptable: they predate this process's accesses anyway.
			at = info.ModTime().UnixNano()
		}
		s.entries[key] = &entry{size: info.Size(), atime: at}
		s.total += info.Size()
		if at >= s.clock {
			s.clock = at + 1
		}
	}
	s.evictLocked(nil)
	return s, nil
}

// ValidKey reports whether key has the shape of a content address
// (SHA-256 hex), as Key returns.
func ValidKey(key string) bool {
	if len(key) != sha256.Size*2 {
		return false
	}
	_, err := hex.DecodeString(key)
	return err == nil
}

// loadIndex reads the persisted access order; any failure just means
// mtime fallback.
func (s *Store) loadIndex() map[string]int64 {
	data, err := os.ReadFile(filepath.Join(s.dir, indexFile))
	if err != nil {
		return nil
	}
	var idx indexState
	if json.Unmarshal(data, &idx) != nil || idx.Schema != indexSchema {
		return nil
	}
	if idx.Clock >= s.clock {
		s.clock = idx.Clock + 1
	}
	return idx.Atimes
}

// path returns the entry file for key.
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key+entryExt)
}

// encodeEntry renders the binary v2 container: magic, version, key,
// raw SHA-256 of the payload, payload.
func encodeEntry(key string, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	data := make([]byte, 0, len(entryMagic)+2+len(key)+len(sum)+len(payload))
	data = append(data, entryMagic[:]...)
	data = binary.AppendUvarint(data, entryVersion)
	data = binary.AppendUvarint(data, uint64(len(key)))
	data = append(data, key...)
	data = append(data, sum[:]...)
	return append(data, payload...)
}

// decodeEntry validates a binary v2 container against the key it was
// filed under and returns its payload.
func decodeEntry(data []byte, key string) ([]byte, bool) {
	if len(data) < len(entryMagic) || !bytes.Equal(data[:len(entryMagic)], entryMagic[:]) {
		return nil, false
	}
	off := len(entryMagic)
	v, n := binary.Uvarint(data[off:])
	if n <= 0 || v != entryVersion {
		return nil, false
	}
	off += n
	kl, n := binary.Uvarint(data[off:])
	if n <= 0 || kl > uint64(len(data)-off-n) {
		return nil, false
	}
	off += n
	if string(data[off:off+int(kl)]) != key {
		return nil, false
	}
	off += int(kl)
	if len(data)-off < sha256.Size {
		return nil, false
	}
	sum := data[off : off+sha256.Size]
	payload := data[off+sha256.Size:]
	actual := sha256.Sum256(payload)
	if !bytes.Equal(sum, actual[:]) {
		return nil, false
	}
	return payload, true
}

// Get returns the payload stored under key. A missing, unreadable,
// mis-keyed or checksum-failing entry is a miss; corrupt files are
// deleted so they cannot satisfy (or fail) future lookups.
//
//pgvn:allow lockscope: the store lock IS the disk-serialization point by design (DESIGN §11)
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		s.stats.Misses++
		return nil, false
	}
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		s.dropLocked(key, false)
		s.stats.Misses++
		return nil, false
	}
	payload, valid := decodeEntry(data, key)
	if !valid {
		s.dropLocked(key, true)
		s.stats.Corrupt++
		s.stats.Misses++
		return nil, false
	}
	s.clock++
	e.atime = s.clock
	s.dirty = true
	s.stats.Hits++
	return payload, true
}

// Put stores payload under key, atomically, and evicts least-recently
// used entries while the store is over budget (never the entry just
// written — a payload larger than the whole budget is still served to
// its writer and evicted by the next Put).
//
//pgvn:allow lockscope: the store lock IS the disk-serialization point by design (DESIGN §11)
func (s *Store) Put(key string, payload []byte) error {
	data := encodeEntry(key, payload)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writeAtomic(s.path(key), data); err != nil {
		return err
	}
	if old, ok := s.entries[key]; ok {
		s.total -= old.size
	}
	s.clock++
	s.entries[key] = &entry{size: int64(len(data)), atime: s.clock}
	s.total += int64(len(data))
	s.dirty = true
	s.stats.Puts++
	s.evictLocked(s.entries[key])
	return nil
}

// writeAtomic writes data next to path and renames it into place.
func (s *Store) writeAtomic(path string, data []byte) error {
	f, err := os.CreateTemp(s.dir, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := f.Name()
	_, werr := f.Write(data)
	cerr := f.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp, path)
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: write %s: %w", filepath.Base(path), werr)
	}
	return nil
}

// evictLocked removes least-recently-used entries (skipping keep) until
// the store fits its budget.
func (s *Store) evictLocked(keep *entry) {
	if s.maxBytes <= 0 {
		return
	}
	for s.total > s.maxBytes {
		var victim string
		for k, e := range s.entries {
			if e == keep {
				continue
			}
			if victim == "" || e.atime < s.entries[victim].atime {
				victim = k
			}
		}
		if victim == "" {
			return
		}
		s.dropLocked(victim, true)
		s.stats.Evictions++
	}
}

// dropLocked forgets an entry, optionally removing its file.
func (s *Store) dropLocked(key string, unlink bool) {
	if e, ok := s.entries[key]; ok {
		s.total -= e.size
		delete(s.entries, key)
		s.dirty = true
	}
	if unlink {
		os.Remove(s.path(key))
	}
}

// Flush persists the access-order index (atomically), so LRU ordering
// survives a restart. gvnd calls it periodically (FlushEvery) and as
// the last step of graceful drain.
//
//pgvn:allow lockscope: index write must see a quiesced access order; the lock is the serialization point
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx := indexState{
		Schema: indexSchema,
		Clock:  s.clock,
		Atimes: make(map[string]int64, len(s.entries)),
	}
	for k, e := range s.entries {
		idx.Atimes[k] = e.atime
	}
	data, err := json.MarshalIndent(idx, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encode index: %w", err)
	}
	if err := s.writeAtomic(filepath.Join(s.dir, indexFile), data); err != nil {
		return err
	}
	s.dirty = false
	return nil
}

// FlushEvery starts a background ticker that flushes the index
// whenever the access order changed since the last flush, so a crash
// (no graceful drain, no final Flush) loses at most one interval of
// LRU precision instead of the whole run's. The returned stop function
// halts the ticker and waits for it; it does not flush — callers on
// the graceful path call Flush themselves (gvnd's drain already does).
func (s *Store) FlushEvery(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				s.mu.Lock()
				dirty := s.dirty
				s.mu.Unlock()
				if dirty {
					// A failed periodic flush is retried next tick; the
					// graceful-drain Flush still reports errors.
					_ = s.Flush()
				}
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// Stats returns a snapshot of the store's counters and occupancy.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.entries)
	st.Bytes = s.total
	return st
}

// Len returns the number of resident entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}
