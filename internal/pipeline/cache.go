package pipeline

import (
	"fmt"
	"sync"

	"pathsched/internal/core"
	"pathsched/internal/ir"
	"pathsched/internal/sched"
	"pathsched/internal/store"
	"pathsched/internal/validate"
)

// Cache is a content-addressed memo of the one build every scheme
// runs: compiling (forming + compacting) the pristine testing build
// under a formation config, replaying the training run over that
// compile for its layout weights, and laying it out. The product is
// the finished, laid-out binary the scheme measures.
//
// Entries are addressed purely by structural fingerprints, never by
// benchmark or scheme name, so any two schemes, ablation configs, or
// runners that arrive at the same inputs share one computation. The
// key (compileKey) hashes the pristine-build fingerprint, the
// training-build fingerprint, the config digest and the compaction and
// profiling parameters, all framed by the one ir.Encoder that also
// defines the fingerprints; the value is an immutable laid-out binary
// that consumers only read.
//
// Lookups are single-flight: the first goroutine to miss a key
// computes it while any concurrent worker asking for the same key
// blocks on the entry instead of duplicating the work (a "dedup" in
// CacheStats). Binaries are immutable once published, so any number of
// workers may read one entry concurrently; the differential tests pin
// cache-on results byte-identical to the cache-off serial pipeline.
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
	compiles map[ir.Digest]*entry
	stats    struct {
		sync.Mutex
		s CacheStats
	}
}

// NewCache returns an empty memory-only cache.
func NewCache() *Cache {
	return &Cache{compiles: map[ir.Digest]*entry{}}
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

// CacheStats counts the cache's lookup outcomes.
type CacheStats struct {
	Compile TierStats
	// Layout is always zero: layout replays run inside compile builds
	// and are counted there. The field remains only because the
	// benchmark harness (cmd/bench/harness.go) still reads it.
	Layout TierStats
}

// Add returns the element-wise sum (merging per-shard stats).
func (s CacheStats) Add(o CacheStats) CacheStats {
	return CacheStats{Compile: s.Compile.Add(o.Compile)}
}

// String renders the counters for the -cachestats report.
func (s CacheStats) String() string {
	return "compile " + s.Compile.String()
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() CacheStats {
	c.stats.Lock()
	defer c.stats.Unlock()
	return c.stats.s
}

// compiled is an immutable cache value: the laid-out binary (code
// addresses assigned; never mutated once published, so consumers read
// it in place), the formation stats the measurement reports, and —
// when the respective gates are enabled — the compile's gap accounting
// and translation validation stats (nil otherwise), so cache hits still
// report both. Validation enters the compile key (compileKey), so an
// entry built without validation can never be returned to a validated
// run.
type compiled struct {
	bin    *ir.Program
	stats  core.Stats
	gap    *sched.GapStats
	vstats *validate.Stats
}

// entry is a single-flight cell: ready is closed once val/err are
// published, after which both are immutable.
type entry struct {
	ready chan struct{}
	val   *compiled
	err   error
}

// outcome classifies one lookup for the stats counters.
type outcome int

const (
	outcomeHit outcome = iota
	outcomeMiss
	outcomeDedup
)

// lookup returns the entry for key, computing it via build at most once
// across all concurrent callers. Errors are cached like values: a key
// that failed to build keeps failing without re-running build (the
// pipeline aborts the whole run on the first error anyway).
func (c *Cache) lookup(key ir.Digest, build func() (*compiled, error)) (*compiled, outcome, error) {
	c.mu.Lock()
	e, ok := c.compiles[key]
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
	e = &entry{ready: make(chan struct{})}
	c.compiles[key] = e
	c.mu.Unlock()

	defer close(e.ready)
	e.val, e.err = build()
	return e.val, outcomeMiss, e.err
}

// bump applies f to the compile tier's counters under the stats lock.
func (c *Cache) bump(f func(*TierStats)) {
	c.stats.Lock()
	f(&c.stats.s.Compile)
	c.stats.Unlock()
}

// compile memoizes one laid-out compile: the in-memory single-flight
// map in front (counting MemHits/Dedups), the disk tier inside the
// build slot (counting DiskHits/ClaimWaits/Builds), so exactly one
// goroutine per process runs the disk path for a given key. On a nil
// cache (caching disabled) it just builds.
func (c *Cache) compile(key ir.Digest, build func() (*compiled, error)) (*compiled, error) {
	if c == nil {
		return build()
	}
	v, out, err := c.lookup(key, func() (*compiled, error) {
		return c.diskLookup(key, build)
	})
	switch out {
	case outcomeHit:
		c.bump(func(t *TierStats) { t.MemHits++ })
	case outcomeDedup:
		c.bump(func(t *TierStats) { t.Dedups++ })
	}
	// outcomeMiss was already classified inside diskLookup as a disk
	// hit or a build.
	return v, err
}
