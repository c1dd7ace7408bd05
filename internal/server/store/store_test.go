package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestKeyDistinguishesFingerprintAndSource(t *testing.T) {
	a := Key("fp1", "src")
	if a != Key("fp1", "src") {
		t.Fatal("Key is not deterministic")
	}
	if a == Key("fp2", "src") || a == Key("fp1", "src2") {
		t.Fatal("Key conflates distinct inputs")
	}
	// The NUL separator means moving a byte across the boundary changes
	// the key.
	if Key("ab", "c") == Key("a", "bc") {
		t.Fatal("fingerprint/source boundary aliases")
	}
}

func TestPutGetRoundtrip(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	k := Key("fp", "src")
	payload := []byte(`{"hello":"world"}`)
	if _, ok := s.Get(k); ok {
		t.Fatal("hit on empty store")
	}
	if err := s.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(k)
	if !ok || string(got) != string(payload) {
		t.Fatalf("Get = %q, %v; want payload, true", got, ok)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReopenServesPriorEntries(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := Key("fp", "src")
	if err := s1.Put(k, []byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := s1.Flush(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(k)
	if !ok || string(got) != `{"a":1}` {
		t.Fatalf("reopened store: Get = %q, %v", got, ok)
	}
}

func TestCorruptEntryIsMissAndRemoved(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := Key("fp", "src")
	if err := s.Put(k, []byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte on disk without updating the checksum.
	path := filepath.Join(dir, k+entryExt)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("tampered entry served")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("tampered entry not removed: %v", err)
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("corrupt count = %d, want 1", st.Corrupt)
	}
	// Tamper with the key field instead: entry under the wrong name.
	k2 := Key("fp", "src2")
	if err := s.Put(k2, []byte(`{"b":2}`)); err != nil {
		t.Fatal(err)
	}
	p2 := filepath.Join(dir, k2+entryExt)
	moved := encodeEntry(k, []byte(`{"b":2}`)) // lies about its identity
	if err := os.WriteFile(p2, moved, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k2); ok {
		t.Fatal("mis-keyed entry served")
	}
}

// TestOpenRemovesV1Entries: an entry file in the retired v1 JSON
// container is removed on Open and never counted.
func TestOpenRemovesV1Entries(t *testing.T) {
	dir := t.TempDir()
	v1Path := filepath.Join(dir, Key("fp", "src")+v1Ext)
	if err := os.WriteFile(v1Path, []byte(`{"schema":"gvnd-store/v1"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(v1Path); !os.IsNotExist(err) {
		t.Fatal("v1 entry not removed on open")
	}
	if st := s.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("v1 entry counted: %d entries, %d bytes", st.Entries, st.Bytes)
	}
}

func TestLRUEviction(t *testing.T) {
	dir := t.TempDir()
	// Budget two entries: payloads are ~200 bytes each once wrapped.
	pay := func(c byte) []byte {
		return []byte(`{"pad":"` + strings.Repeat(string(c), 64) + `"}`)
	}
	probe := encodeEntry(Key("f", "x"), pay('x'))
	budget := int64(len(probe))*2 + 10
	s, err := Open(dir, budget)
	if err != nil {
		t.Fatal(err)
	}
	ka, kb, kc := Key("f", "a"), Key("f", "b"), Key("f", "c")
	for _, p := range []struct {
		k string
		c byte
	}{{ka, 'a'}, {kb, 'b'}} {
		if err := s.Put(p.k, pay(p.c)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch a so b is the LRU victim.
	if _, ok := s.Get(ka); !ok {
		t.Fatal("a missing before eviction")
	}
	if err := s.Put(kc, pay('c')); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("entries = %d, want 2 after eviction", s.Len())
	}
	if _, ok := s.Get(kb); ok {
		t.Fatal("LRU entry b survived")
	}
	if _, ok := s.Get(ka); !ok {
		t.Fatal("recently used entry a evicted")
	}
	if _, ok := s.Get(kc); !ok {
		t.Fatal("new entry c evicted")
	}
	if st := s.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

func TestFlushPersistsLRUOrder(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	ka, kb := Key("f", "a"), Key("f", "b")
	if err := s1.Put(ka, []byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := s1.Put(kb, []byte(`{"b":1}`)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s1.Get(ka); !ok { // a becomes most recent
		t.Fatal("a missing")
	}
	if err := s1.Flush(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	keys := s2.Keys()
	if len(keys) != 2 || keys[0] != ka || keys[1] != kb {
		t.Fatalf("reloaded LRU order = %v, want [a b] keys %s %s", keys, ka, kb)
	}
}

func TestOpenReapsTempFilesAndIgnoresJunk(t *testing.T) {
	dir := t.TempDir()
	junk := filepath.Join(dir, tmpPrefix+"12345")
	if err := os.WriteFile(junk, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(junk); !os.IsNotExist(err) {
		t.Fatal("temp file not reaped on open")
	}
	if s.Len() != 0 {
		t.Fatalf("junk counted as entries: %d", s.Len())
	}
	// No stray temp files remain after normal writes either.
	if err := s.Put(Key("f", "a"), []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if strings.HasPrefix(de.Name(), tmpPrefix) {
			t.Fatalf("leftover temp file %s", de.Name())
		}
	}
}

func TestOpenShrinksOverBudgetStore(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range []string{Key("f", "a"), Key("f", "b"), Key("f", "c")} {
		if err := s1.Put(k, []byte(`{"i":`+string(rune('0'+i))+`}`)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s1.Flush(); err != nil {
		t.Fatal(err)
	}
	total := s1.Stats().Bytes
	s2, err := Open(dir, total-1) // cap lowered between runs
	if err != nil {
		t.Fatal(err)
	}
	if s2.Stats().Bytes > total-1 {
		t.Fatalf("reopened store over budget: %d > %d", s2.Stats().Bytes, total-1)
	}
	if s2.Len() >= 3 {
		t.Fatalf("nothing evicted on over-budget reopen: %d entries", s2.Len())
	}
}

func TestPutOverwriteReplacesSize(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	k := Key("f", "a")
	if err := s.Put(k, []byte(`{"v":"`+strings.Repeat("x", 100)+`"}`)); err != nil {
		t.Fatal(err)
	}
	big := s.Stats().Bytes
	if err := s.Put(k, []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Entries != 1 {
		t.Fatalf("entries = %d after overwrite", st.Entries)
	}
	if st.Bytes >= big {
		t.Fatalf("bytes not reduced by smaller overwrite: %d >= %d", st.Bytes, big)
	}
	got, ok := s.Get(k)
	if !ok || string(got) != `{"v":1}` {
		t.Fatalf("overwritten entry = %q, %v", got, ok)
	}
}

// TestPeriodicFlushSurvivesCrash simulates a daemon killed mid-run: the
// ticker has flushed, but no drain-time Flush ever happens (the handle
// is simply abandoned). A fresh Store over the same directory must see
// the ticker's index — access order included — not just mtimes.
func TestPeriodicFlushSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	stop := s1.FlushEvery(5 * time.Millisecond)
	ka, kb, kc := Key("f", "a"), Key("f", "b"), Key("f", "c")
	for _, k := range []string{ka, kb, kc} {
		if err := s1.Put(k, []byte(`{"x":1}`)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch a so the logical access order (a most recent) diverges from
	// the file mtime order (c most recent) — only the flushed index can
	// reproduce it.
	if _, ok := s1.Get(ka); !ok {
		t.Fatal("a missing")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var idx indexState
		data, err := os.ReadFile(filepath.Join(dir, indexFile))
		if err == nil && json.Unmarshal(data, &idx) == nil && len(idx.Atimes) == 3 &&
			idx.Atimes[ka] > idx.Atimes[kc] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("periodic flush never persisted the access order")
		}
		time.Sleep(2 * time.Millisecond)
	}
	stop()
	// Crash: no s1.Flush(), no drain — just reopen the directory.
	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	keys := s2.Keys()
	if len(keys) != 3 || keys[0] != ka {
		t.Fatalf("reopened LRU order = %v, want a most recent (index-driven, not mtime)", keys)
	}
}

// TestFlushEveryIdlesWhenClean: an unchanged store must not rewrite the
// index every tick.
func TestFlushEveryIdlesWhenClean(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Key("f", "a"), []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(filepath.Join(dir, indexFile))
	if err != nil {
		t.Fatal(err)
	}
	stop := s.FlushEvery(time.Millisecond)
	time.Sleep(30 * time.Millisecond)
	stop()
	after, err := os.Stat(filepath.Join(dir, indexFile))
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().Equal(before.ModTime()) {
		t.Fatal("clean store was reflushed by the ticker")
	}
}

// Keys returns the resident keys ordered most-recently-used first: the
// LRU order the index persists.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.entries))
	for k := range s.entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return s.entries[keys[i]].atime > s.entries[keys[j]].atime
	})
	return keys
}
