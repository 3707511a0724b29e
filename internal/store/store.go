// Package store is a persistent, content-addressed artifact store: the
// disk tier under pipeline.Cache. Entries are opaque payloads addressed
// by (kind, key) where keys are stable content digests (ir.Fingerprint
// and the pipeline's compile-key digests), so any two processes that
// arrive at the same key may share one artifact — across process
// restarts, concurrent shards, and machines sharing a filesystem.
//
// The design follows shared-state optimistic concurrency rather than a
// coordinating server (the arktos discipline): writers never take a
// global lock. Publishing is atomic — payloads are written to a private
// temp file and renamed into place, so readers only ever observe absent
// or complete entries. Every entry carries a length and a sha256 of its
// payload; Get re-checks both, and the pipeline additionally checks
// each payload's key binding and re-fingerprints the decoded program
// against the fingerprint recorded in it (the sha256 of the program's
// codec bytes), so a truncated, bit-flipped or misfiled entry is a miss
// (and is deleted), never a wrong answer.
//
// Cross-process build deduplication uses optimistic claim files (see
// claim.go): the first builder of a key creates a claim, concurrent
// builders wait for the entry instead of duplicating the work, and a
// claim whose owner stops refreshing it goes stale and is taken over —
// nobody ever blocks on a dead process. Losing a race is always safe:
// artifacts are deterministic functions of their keys, so a duplicate
// build publishes identical bytes.
//
// On-disk layout under the root directory:
//
//	<kind>/<key>    entries (kind ∈ {compile, layout, ...}, key hex)
//	claims/         in-progress build claims
//	tmp/            private scratch for atomic publishes
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// entryMagic versions the entry framing. Bump on any change: entries
// written by other versions then fail the header check and are
// rebuilt, which is always safe.
const entryMagic = "pathsched-store-v1\n"

// headerSize is the fixed entry prefix: magic, 8-byte little-endian
// payload length, 32-byte payload sha256.
const headerSize = len(entryMagic) + 8 + sha256.Size

// Options tunes the claim protocol; the zero value selects defaults.
type Options struct {
	// StaleAfter is how long a claim may go unrefreshed before waiters
	// treat its owner as dead and take the build over (default 10s).
	// Owners refresh their claims every StaleAfter/4, so a live owner
	// is never preempted unless its process stalls for most of the
	// window — and even then the race is benign (both builds publish
	// identical bytes).
	StaleAfter time.Duration
	// PollInterval is how often a waiter re-checks for the entry or a
	// stale claim (default 20ms).
	PollInterval time.Duration
}

func (o Options) withDefaults() Options {
	if o.StaleAfter <= 0 {
		o.StaleAfter = 10 * time.Second
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 20 * time.Millisecond
	}
	return o
}

// Store is a handle on one artifact-store directory. It is safe for
// concurrent use by any number of goroutines and processes.
type Store struct {
	root string
	opts Options
	seq  atomic.Uint64 // uniquifies temp-file names within the process
}

// Open creates (if needed) and opens the store rooted at dir.
func Open(dir string, opts Options) (*Store, error) {
	for _, d := range []string{dir, filepath.Join(dir, "claims"), filepath.Join(dir, "tmp")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	return &Store{root: dir, opts: opts.withDefaults()}, nil
}

// Root returns the store's directory.
func (s *Store) Root() string { return s.root }

// checkName rejects kind/key components that could escape the store
// directory or collide with the bookkeeping subdirectories.
func checkName(what, name string) error {
	if name == "" || name == "claims" || name == "tmp" {
		return fmt.Errorf("store: invalid %s %q", what, name)
	}
	for _, c := range name {
		ok := c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '-'
		if !ok {
			return fmt.Errorf("store: invalid %s %q (want lowercase hex / dashes)", what, name)
		}
	}
	return nil
}

func (s *Store) entryPath(kind, key string) string {
	return filepath.Join(s.root, kind, key)
}

// tempPath returns a fresh private scratch path. Process id plus an
// in-process counter keeps concurrent publishers (goroutines and
// processes) from colliding.
func (s *Store) tempPath() string {
	return filepath.Join(s.root, "tmp", fmt.Sprintf("t%d-%d", os.Getpid(), s.seq.Add(1)))
}

// Get returns the payload stored under (kind, key). A missing,
// truncated, or corrupt entry is a miss; corrupt entries are deleted
// so the next Put does not need to race a poisoned file. Successful
// reads refresh the entry's timestamp, which is the access order GC
// prunes by.
func (s *Store) Get(kind, key string) ([]byte, bool) {
	if checkName("kind", kind) != nil || checkName("key", key) != nil {
		return nil, false
	}
	path := s.entryPath(kind, key)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	payload, ok := decodeEntry(data)
	if !ok {
		// Corrupt or foreign-version entry: remove it so it stops
		// costing a read per lookup. A concurrent re-publish of the
		// same key is fine — we either delete the corrupt file before
		// the rename lands or harmlessly miss.
		os.Remove(path)
		return nil, false
	}
	now := time.Now()
	os.Chtimes(path, now, now) // best-effort access stamp for GC
	return payload, true
}

// Put atomically publishes payload under (kind, key): write to a
// private temp file, then rename into place. Readers never observe a
// partial entry; a crash mid-publish leaves only an ignorable file in
// tmp/ (cleaned by GC).
func (s *Store) Put(kind, key string, payload []byte) error {
	if err := checkName("kind", kind); err != nil {
		return err
	}
	if err := checkName("key", key); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(s.root, kind), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := s.tempPath()
	if err := writeFileSync(tmp, encodeEntry(payload)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: publish %s/%s: %w", kind, key, err)
	}
	if err := os.Rename(tmp, s.entryPath(kind, key)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: publish %s/%s: %w", kind, key, err)
	}
	return nil
}

// Delete removes the entry under (kind, key); missing entries are not
// an error. The pipeline uses it to evict entries whose payloads
// decode but fail semantic integrity (fingerprint mismatch).
func (s *Store) Delete(kind, key string) error {
	if err := checkName("kind", kind); err != nil {
		return err
	}
	if err := checkName("key", key); err != nil {
		return err
	}
	err := os.Remove(s.entryPath(kind, key))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// writeFileSync writes data and syncs it to stable storage before
// returning, so the subsequent rename never publishes a file whose
// contents are still in flight.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// encodeEntry frames a payload: magic, length, sha256, payload.
func encodeEntry(payload []byte) []byte {
	out := make([]byte, 0, headerSize+len(payload))
	out = append(out, entryMagic...)
	var lenBuf [8]byte
	binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(payload)))
	out = append(out, lenBuf[:]...)
	sum := sha256.Sum256(payload)
	out = append(out, sum[:]...)
	return append(out, payload...)
}

// decodeEntry validates the framing and digest, returning the payload.
func decodeEntry(data []byte) ([]byte, bool) {
	if len(data) < headerSize || string(data[:len(entryMagic)]) != entryMagic {
		return nil, false
	}
	rest := data[len(entryMagic):]
	n := binary.LittleEndian.Uint64(rest[:8])
	var want [sha256.Size]byte
	copy(want[:], rest[8:8+sha256.Size])
	payload := rest[8+sha256.Size:]
	if uint64(len(payload)) != n {
		return nil, false
	}
	if sha256.Sum256(payload) != want {
		return nil, false
	}
	return payload, true
}
