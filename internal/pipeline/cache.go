package pipeline

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"sync"

	"pathsched/internal/core"
	"pathsched/internal/ir"
	"pathsched/internal/layout"
	"pathsched/internal/profile"
	"pathsched/internal/sched"
	"pathsched/internal/store"
	"pathsched/internal/validate"
)

// Cache is a content-addressed memo of the two steps every scheme
// runs: compiling (forming + compacting) the pristine testing build
// under a formation config, and replaying the training run over that
// compile for its layout weights.
//
// Entries are addressed purely by structural fingerprints, never by
// benchmark or scheme name, so any two schemes, ablation configs, or
// runners that arrive at the same inputs share one computation:
//
//   - compile entries are keyed by (pristine-build fingerprint,
//     training-build fingerprint, config digest) — see compileKey —
//     and hold an immutable master of the compiled program, which
//     consumers clone before mutating;
//   - layout entries are keyed by the testing compile's key, under
//     their own domain string (layoutKey), and hold the compile's
//     frozen layout profile (block and edge frequencies plus dynamic
//     call counts) as replayed from the training run.
//
// Lookups are single-flight: the first goroutine to miss a key
// computes it while any concurrent worker asking for the same key
// blocks on the entry instead of duplicating the work (a "dedup" in
// CacheStats). Masters and profiles are immutable once published, so
// any number of workers may read one entry concurrently; the
// differential tests pin cache-on results byte-identical to the
// cache-off serial pipeline.
//
// When a disk artifact store is attached (NewDiskCache), the cache
// becomes two-tiered: memory → disk → build. A memory miss consults
// the store before building, and a local build publishes its artifact
// so other processes sharing the store directory skip it.
//
// A Cache may be shared across Runners (ablation sweeps pass one cache
// to every config's runner) and is safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	store    *store.Store // optional disk tier; nil = memory-only
	compiles map[ir.Digest]*entry[*compiled]
	layouts  map[ir.Digest]*entry[*layoutProfile]
	stats    struct {
		sync.Mutex
		s CacheStats
	}
}

// NewCache returns an empty memory-only cache.
func NewCache() *Cache {
	return &Cache{
		compiles: map[ir.Digest]*entry[*compiled]{},
		layouts:  map[ir.Digest]*entry[*layoutProfile]{},
	}
}

// NewDiskCache returns a cache backed by the given artifact store as a
// second tier. Results are identical to a memory-only cache; only
// where the work happens changes.
func NewDiskCache(st *store.Store) *Cache {
	c := NewCache()
	c.store = st
	return c
}

// TierStats counts lookup outcomes for one artifact kind. Every
// lookup lands in exactly one of MemHits, DiskHits, Dedups, or Builds;
// ClaimWaits additionally counts the lookups that blocked on another
// process's in-flight build before resolving.
type TierStats struct {
	MemHits    int64 // completed entry already in this process's memory
	DiskHits   int64 // decoded and verified from the artifact store
	ClaimWaits int64 // waited on another process's claim first
	Builds     int64 // computed from scratch in this process
	Dedups     int64 // waited on another goroutine's in-flight build
}

// Add returns the element-wise sum (merging per-shard stats).
func (t TierStats) Add(o TierStats) TierStats {
	return TierStats{
		MemHits:    t.MemHits + o.MemHits,
		DiskHits:   t.DiskHits + o.DiskHits,
		ClaimWaits: t.ClaimWaits + o.ClaimWaits,
		Builds:     t.Builds + o.Builds,
		Dedups:     t.Dedups + o.Dedups,
	}
}

func (t TierStats) String() string {
	return fmt.Sprintf("%d mem hits / %d disk hits / %d claim-waits / %d builds / %d dedups",
		t.MemHits, t.DiskHits, t.ClaimWaits, t.Builds, t.Dedups)
}

// CacheStats counts cache outcomes per artifact kind and tier.
type CacheStats struct {
	Compile TierStats
	Layout  TierStats
}

// Add returns the element-wise sum (merging per-shard stats).
func (s CacheStats) Add(o CacheStats) CacheStats {
	return CacheStats{Compile: s.Compile.Add(o.Compile), Layout: s.Layout.Add(o.Layout)}
}

// String renders the counters for the -cachestats report.
func (s CacheStats) String() string {
	return fmt.Sprintf("compile %s; layout-profile %s", s.Compile, s.Layout)
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() CacheStats {
	c.stats.Lock()
	defer c.stats.Unlock()
	return c.stats.s
}

// compiled is an immutable compile-cache value: the master program
// (never handed to callers directly — they clone it), the formation
// stats the measurement reports, and — when the respective gates are
// enabled — the compile's gap accounting and translation validation
// stats (nil otherwise), so cache hits still report both. Validation
// enters the compile key (compileKey), so an entry built without
// validation can never be returned to a validated run.
type compiled struct {
	master *ir.Program
	stats  core.Stats
	gap    *sched.GapStats
	vstats *validate.Stats
}

// layoutProfile is an immutable layout-cache value: the frozen weights
// layout.Assign consumes, replayed from the training run over one
// compile. The profile and call-count map are read-only once the
// replay completes, so one value may serve any number of schemes at
// once.
type layoutProfile struct {
	calls map[[2]ir.ProcID]int64
	prof  *profile.EdgeProfile
}

// input adapts the cached weights to layout.Assign's interface.
func (lp *layoutProfile) input() layout.Input {
	return layout.Input{
		CallCounts: lp.calls,
		BlockFreq:  lp.prof.BlockFreq,
		EdgeFreq:   lp.prof.EdgeFreq,
	}
}

// keyWriter frames cache-key components into a sha256, with the same
// length-prefixing discipline as ir.Fingerprint.
type keyWriter struct {
	h   hash.Hash
	buf [8]byte
}

func newKeyWriter() *keyWriter { return &keyWriter{h: sha256.New()} }

func (w *keyWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:], v)
	w.h.Write(w.buf[:])
}

func (w *keyWriter) str(s string) {
	w.u64(uint64(len(s)))
	w.h.Write([]byte(s))
}

func (w *keyWriter) bool(b bool) {
	if b {
		w.u64(1)
	} else {
		w.u64(0)
	}
}

func (w *keyWriter) digest(d ir.Digest) { w.h.Write(d[:]) }

func (w *keyWriter) sum() ir.Digest {
	var d ir.Digest
	w.h.Sum(d[:0])
	return d
}

// entry is a single-flight cell: ready is closed once val/err are
// published, after which both are immutable.
type entry[V any] struct {
	ready chan struct{}
	val   V
	err   error
}

// outcome classifies one lookup for the stats counters.
type outcome int

const (
	outcomeHit outcome = iota
	outcomeMiss
	outcomeDedup
)

// lookup returns m[key], computing it via build at most once across
// all concurrent callers. Errors are cached like values: a key that
// failed to build keeps failing without re-running build (the pipeline
// aborts the whole run on the first error anyway).
func lookup[V any](c *Cache, m map[ir.Digest]*entry[V], key ir.Digest, build func() (V, error)) (V, outcome, error) {
	c.mu.Lock()
	e, ok := m[key]
	if ok {
		c.mu.Unlock()
		out := outcomeDedup
		select {
		case <-e.ready:
			out = outcomeHit // already complete: no waiting involved
		default:
		}
		<-e.ready
		return e.val, out, e.err
	}
	e = &entry[V]{ready: make(chan struct{})}
	m[key] = e
	c.mu.Unlock()

	defer close(e.ready)
	e.val, e.err = build()
	return e.val, outcomeMiss, e.err
}

// bump applies f to one kind's tier counters under the stats lock.
func (c *Cache) bump(sel func(*CacheStats) *TierStats, f func(*TierStats)) {
	c.stats.Lock()
	f(sel(&c.stats.s))
	c.stats.Unlock()
}

// compile memoizes one formed+compacted build. On a nil cache
// (caching disabled) it just builds.
func (c *Cache) compile(key ir.Digest, build func() (*compiled, error)) (*compiled, error) {
	if c == nil {
		return build()
	}
	return lookupTiered(c, c.compiles, key, compiledCodec,
		func(s *CacheStats) *TierStats { return &s.Compile }, build)
}

// layout memoizes one layout replay, keyed by layoutKey of the compile
// it replays over. On a nil cache (caching disabled) it just builds.
func (c *Cache) layout(key ir.Digest, build func() (*layoutProfile, error)) (*layoutProfile, error) {
	if c == nil {
		return build()
	}
	return lookupTiered(c, c.layouts, key, layoutCodec,
		func(s *CacheStats) *TierStats { return &s.Layout }, build)
}
