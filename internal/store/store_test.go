package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func openTest(t *testing.T) *Store {
	t.Helper()
	s, err := Open(filepath.Join(t.TempDir(), "store"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openTest(t)
	payload := []byte("some artifact bytes \x00\xff")
	if _, ok := s.Get("compile", "abc123"); ok {
		t.Fatal("hit before publish")
	}
	if err := s.Put("compile", "abc123", payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("compile", "abc123")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: ok=%v got=%q", ok, got)
	}
	// Distinct kinds do not alias.
	if _, ok := s.Get("layout", "abc123"); ok {
		t.Fatal("entry visible under wrong kind")
	}
	if err := s.Delete("compile", "abc123"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("compile", "abc123"); ok {
		t.Fatal("hit after delete")
	}
	if err := s.Delete("compile", "abc123"); err != nil {
		t.Fatalf("delete of missing entry: %v", err)
	}
}

func TestEmptyPayload(t *testing.T) {
	s := openTest(t)
	if err := s.Put("compile", "0", nil); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("compile", "0")
	if !ok || len(got) != 0 {
		t.Fatalf("empty payload: ok=%v len=%d", ok, len(got))
	}
}

func TestInvalidNamesRejected(t *testing.T) {
	s := openTest(t)
	for _, bad := range []string{"", "tmp", "claims", "../escape", "UPPER", "a/b", "a.b"} {
		if err := s.Put(bad, "aa", []byte("x")); err == nil {
			t.Errorf("Put accepted kind %q", bad)
		}
		if err := s.Put("compile", bad, []byte("x")); err == nil {
			t.Errorf("Put accepted key %q", bad)
		}
		if _, ok := s.Get(bad, "aa"); ok {
			t.Errorf("Get accepted kind %q", bad)
		}
	}
}

// TestCorruptEntryIsMissAndRemoved flips each byte of a stored entry in
// turn: every corruption must read as a miss, and the poisoned file
// must be gone afterwards so a rebuild can publish cleanly.
func TestCorruptEntryIsMissAndRemoved(t *testing.T) {
	s := openTest(t)
	payload := []byte("artifact payload with enough bytes to be interesting")
	path := s.entryPath("compile", "deadbeef")
	if err := s.Put("compile", "deadbeef", payload); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < len(clean); pos++ {
		mut := append([]byte(nil), clean...)
		mut[pos] ^= 0x40
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get("compile", "deadbeef"); ok {
			t.Fatalf("bit flip at byte %d read as a hit", pos)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("corrupt entry (flip at %d) not removed: %v", pos, err)
		}
	}
}

func TestTruncatedEntryIsMiss(t *testing.T) {
	s := openTest(t)
	payload := []byte("truncate me")
	path := s.entryPath("compile", "feed")
	if err := s.Put("compile", "feed", payload); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(clean); n++ {
		if err := os.WriteFile(path, clean[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get("compile", "feed"); ok {
			t.Fatalf("truncation to %d/%d bytes read as a hit", n, len(clean))
		}
	}
}

// TestKillMidPublishLeavesOnlyTempDebris simulates a process dying
// after writing its temp file but before the rename: the entry must
// not exist, and GC must sweep the debris once it is stale.
func TestKillMidPublishLeavesOnlyTempDebris(t *testing.T) {
	s := openTest(t)
	tmp := s.tempPath()
	if err := writeFileSync(tmp, encodeEntry([]byte("half-published"))); err != nil {
		t.Fatal(err)
	}
	// The "crashed" publisher never renamed: no entry is visible.
	if _, ok := s.Get("compile", "cafe"); ok {
		t.Fatal("unpublished temp file visible as an entry")
	}
	entries, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("List sees %d entries, want 0", len(entries))
	}
	// Fresh debris is left alone (its writer may still be alive)...
	if st, err := s.GC(0); err != nil || st.TmpRemoved != 0 {
		t.Fatalf("GC removed fresh temp file: %+v err=%v", st, err)
	}
	// ...but stale debris is swept.
	old := time.Now().Add(-2 * s.opts.StaleAfter)
	if err := os.Chtimes(tmp, old, old); err != nil {
		t.Fatal(err)
	}
	st, err := s.GC(0)
	if err != nil || st.TmpRemoved != 1 {
		t.Fatalf("GC of stale temp file: %+v err=%v", st, err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("stale temp file survived GC")
	}
}

// TestConcurrentPutsOfOneKey is the claimless sharing case: many
// goroutines over two Store handles on one directory (two processes'
// worth of publishers) publish the same key at once, as processes that
// miss one key together do. Every Put must succeed, the entry must read
// back intact, and no temp file may be left behind.
func TestConcurrentPutsOfOneKey(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "shared")
	var handles [2]*Store
	for i := range handles {
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = s
	}
	payload := bytes.Repeat([]byte("the one true artifact "), 4096)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(s *Store) {
			defer wg.Done()
			if err := s.Put("compile", "66", payload); err != nil {
				t.Error(err)
			}
		}(handles[i%2])
	}
	wg.Wait()
	got, ok := handles[0].Get("compile", "66")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("after concurrent Puts: ok=%v, %d bytes, want %d", ok, len(got), len(payload))
	}
	if tmp, err := os.ReadDir(filepath.Join(dir, "tmp")); err != nil || len(tmp) != 0 {
		t.Fatalf("tmp/ after concurrent Puts: %d files, err %v", len(tmp), err)
	}
}

// TestGCRemovesOlderClaimsDir: a store written while builds were
// coordinated by claim files holds a claims/ directory, possibly with a
// dead claim in it. List must skip it and GC must remove it, entries
// untouched.
func TestGCRemovesOlderClaimsDir(t *testing.T) {
	s := openTest(t)
	if err := s.Put("compile", "aa", []byte("kept")); err != nil {
		t.Fatal(err)
	}
	claims := filepath.Join(s.root, "claims")
	if err := os.Mkdir(claims, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(claims, "compile.bb"), []byte("pid 999999\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if entries, err := s.List(); err != nil || len(entries) != 1 {
		t.Fatalf("List with claims/: %+v err=%v", entries, err)
	}
	st, err := s.GC(0)
	if err != nil || st.Entries != 1 || st.Removed != 0 {
		t.Fatalf("GC: %+v err=%v", st, err)
	}
	if _, err := os.Stat(claims); !os.IsNotExist(err) {
		t.Fatalf("claims/ survived GC: %v", err)
	}
	if got, ok := s.Get("compile", "aa"); !ok || string(got) != "kept" {
		t.Fatalf("entry after GC: ok=%v %q", ok, got)
	}
}

func TestGCPrunesOldestAccessFirst(t *testing.T) {
	s := openTest(t)
	// Three entries with staggered access times; each entry is
	// headerSize+16 bytes on disk.
	size := int64(headerSize + 16)
	base := time.Now().Add(-time.Hour)
	for i, key := range []string{"aa", "bb", "cc"} {
		if err := s.Put("compile", key, bytes.Repeat([]byte{byte(i)}, 16)); err != nil {
			t.Fatal(err)
		}
		ts := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(s.entryPath("compile", key), ts, ts); err != nil {
			t.Fatal(err)
		}
	}
	// Reading "aa" refreshes it, making "bb" the oldest.
	if _, ok := s.Get("compile", "aa"); !ok {
		t.Fatal("miss on aa")
	}
	st, err := s.GC(2 * size)
	if err != nil {
		t.Fatal(err)
	}
	if st.Removed != 1 || st.Entries != 2 || st.Bytes != 2*size {
		t.Fatalf("GC stats: %+v", st)
	}
	if _, ok := s.Get("compile", "bb"); ok {
		t.Fatal("oldest-access entry bb survived GC")
	}
	for _, key := range []string{"aa", "cc"} {
		if _, ok := s.Get("compile", key); !ok {
			t.Fatalf("entry %s wrongly pruned", key)
		}
	}
	// Budget boundary: exactly-at-budget removes nothing further.
	st, err = s.GC(2 * size)
	if err != nil || st.Removed != 0 || st.Entries != 2 {
		t.Fatalf("at-budget GC: %+v err=%v", st, err)
	}
	// maxBytes <= 0 keeps everything.
	st, err = s.GC(0)
	if err != nil || st.Removed != 0 || st.Entries != 2 {
		t.Fatalf("unbounded GC: %+v err=%v", st, err)
	}
}

func TestListSortedAndComplete(t *testing.T) {
	s := openTest(t)
	want := []string{"compile/aa", "compile/zz", "layout/mm"}
	for _, e := range []struct{ kind, key string }{
		{"layout", "mm"}, {"compile", "zz"}, {"compile", "aa"},
	} {
		if err := s.Put(e.kind, e.key, []byte(e.kind+e.key)); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Kind+"/"+e.Key)
		if e.Size <= int64(headerSize) {
			t.Errorf("%s/%s: size %d", e.Kind, e.Key, e.Size)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("List order: got %v want %v", got, want)
	}
}
