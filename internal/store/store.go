// Package store is a persistent, content-addressed artifact store: the
// disk tier under pipeline.Cache. Entries are opaque payloads addressed
// by (kind, key) where keys are stable content digests (the pipeline's
// compile-key digests), so any two processes that arrive at the same key
// may share one artifact — across process restarts, concurrent
// processes, and machines sharing a filesystem.
//
// Writers never take a lock. Publishing is atomic — payloads are
// written to a private temp file and renamed into place, so readers
// only ever observe absent or complete entries. Two processes that miss
// the same key may both build it; artifacts are deterministic functions
// of their keys, so both publish identical bytes and the second rename
// replaces an entry with itself. Every entry carries a length and a
// sha256 of its payload; Get re-checks both, and the pipeline
// additionally checks each payload's key binding and re-fingerprints
// the decoded program against the fingerprint recorded in it (the
// sha256 of the program's codec bytes), so a truncated, bit-flipped or
// misfiled entry is a miss (and is deleted), never a wrong answer.
//
// On-disk layout under the root directory:
//
//	PATHSCHED-STORE marker: this directory is a store
//	<kind>/<key>    entries (kind ∈ {compile}, key hex)
//	tmp/            private scratch for atomic publishes
//
// The marker's upper-case name can never be an entry kind. Open writes
// it into a missing or empty directory and refuses any other directory
// without one, so no store operation reads, deletes or creates files in
// a directory that is not a store. Stores written before the marker
// existed are refused too; their entries are rebuildable, so the fix
// is to remove them.
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

// Options tunes the store; the zero value selects defaults.
type Options struct {
	// StaleAfter is how old a temp file must be before GC treats its
	// writer as dead and removes it (default 10s). A live publisher
	// renames its temp file as soon as it is written, so only a killed
	// process's debris ages past it.
	StaleAfter time.Duration
}

func (o Options) withDefaults() Options {
	if o.StaleAfter <= 0 {
		o.StaleAfter = 10 * time.Second
	}
	return o
}

// Store is a handle on one artifact-store directory. It is safe for
// concurrent use by any number of goroutines and processes.
type Store struct {
	root string
	opts Options
}

// tempSeq uniquifies temp-file names within the process, across every
// Store handle on one directory.
var tempSeq atomic.Uint64

// markerName is the empty file at the root of every store.
const markerName = "PATHSCHED-STORE"

// Open opens the store rooted at dir, making a missing or empty dir a
// store first; any other directory without the marker is refused as
// OpenExisting refuses it. Processes opening one empty directory at
// once all succeed: the marker goes in before tmp/, so no directory
// holds tmp/ without it, and Open re-creates a marked store's missing
// tmp/.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if names, err := os.ReadDir(dir); err == nil && len(names) == 0 {
		if err := os.WriteFile(filepath.Join(dir, markerName), nil, 0o644); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	s, err := OpenExisting(dir, opts)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(dir, "tmp"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return s, nil
}

// OpenExisting opens the store rooted at dir without creating
// anything. A directory without the marker is refused, and nothing in
// it is read, created or deleted.
func OpenExisting(dir string, opts Options) (*Store, error) {
	if _, err := os.Stat(dir); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if _, err := os.Stat(filepath.Join(dir, markerName)); os.IsNotExist(err) {
		return nil, fmt.Errorf("store: %s is not an artifact store: it has no %s marker "+
			"(a store written by an older version has none; remove it, every entry is rebuildable)", dir, markerName)
	} else if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{root: dir, opts: opts.withDefaults()}, nil
}

// Root returns the store's directory.
func (s *Store) Root() string { return s.root }

// checkName rejects kind/key components that could escape the store
// directory or collide with tmp/.
func checkName(what, name string) error {
	if name == "" || name == "tmp" {
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

// tempPath returns a fresh private scratch path. Process id plus a
// process-wide counter keeps concurrent publishers (goroutines, Store
// handles and processes) from colliding.
func (s *Store) tempPath() string {
	return filepath.Join(s.root, "tmp", fmt.Sprintf("t%d-%d", os.Getpid(), tempSeq.Add(1)))
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
