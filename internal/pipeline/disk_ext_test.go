// Differential tests for the disk tier: a store-backed cache must
// render byte-identical reports to the memory-only pipeline — cold,
// disk-warm across a simulated process boundary (fresh cache, same
// store directory), and in the face of corrupted or misfiled entries,
// which may cost rebuilds but never change a byte of output.
package pipeline_test

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"pathsched/internal/machine"
	"pathsched/internal/pipeline"
	"pathsched/internal/store"
)

var diskTestNames = []string{"alt", "wc"}

// diskRun runs the suite with a fresh Runner over the given cache,
// returning the rendered report and the cache stats delta.
func diskRun(t *testing.T, cache *pipeline.Cache) (string, pipeline.CacheStats) {
	t.Helper()
	before := cache.Stats()
	c := machine.DefaultICache()
	r := pipeline.NewRunner(pipeline.Options{Cache: &c, Parallelism: 1, ProfileCache: cache})
	res, err := r.RunSuite(diskTestNames, pipeline.AllSchemes())
	if err != nil {
		t.Fatal(err)
	}
	after := cache.Stats()
	return renderAll(t, res), pipeline.CacheStats{Compile: subTier(after.Compile, before.Compile)}
}

func subTier(a, b pipeline.TierStats) pipeline.TierStats {
	return pipeline.TierStats{
		MemHits:    a.MemHits - b.MemHits,
		DiskHits:   a.DiskHits - b.DiskHits,
		ClaimWaits: a.ClaimWaits - b.ClaimWaits,
		Builds:     a.Builds - b.Builds,
		Dedups:     a.Dedups - b.Dedups,
	}
}

func openTestStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestDiskWarmMatchesMemoryByteForByte is the disk-tier differential:
// a cold store-backed run matches the memory-only baseline and leaves
// one compile entry (a laid-out binary) per build and nothing else in
// the store, and a second run through a *fresh* cache on the same
// store (the process-restart regime the store exists for) matches
// again while serving every binary from disk.
func TestDiskWarmMatchesMemoryByteForByte(t *testing.T) {
	baseline, _ := diskRun(t, pipeline.NewCache())

	dir := filepath.Join(t.TempDir(), "store")
	cold, coldStats := diskRun(t, pipeline.NewDiskCache(openTestStore(t, dir)))
	if cold != baseline {
		t.Fatalf("store-backed cold run diverges from memory-only baseline:\n--- memory ---\n%s\n--- disk ---\n%s", baseline, cold)
	}
	if coldStats.Compile.Builds == 0 {
		t.Fatalf("cold run built nothing: %s", coldStats)
	}
	if coldStats.Compile.DiskHits != 0 {
		t.Fatalf("cold run claims disk hits on an empty store: %s", coldStats)
	}
	entries, err := openTestStore(t, dir).List()
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(entries)) != coldStats.Compile.Builds {
		t.Fatalf("cold store holds %d entries for %d builds", len(entries), coldStats.Compile.Builds)
	}
	for _, e := range entries {
		if e.Kind != pipeline.StoreKindCompile {
			t.Fatalf("cold store holds a %s/ entry; only %s/ entries are published", e.Kind, pipeline.StoreKindCompile)
		}
	}

	// Fresh cache, same directory: everything is a disk hit.
	warm, warmStats := diskRun(t, pipeline.NewDiskCache(openTestStore(t, dir)))
	if warm != baseline {
		t.Fatalf("disk-warm run diverges from baseline:\n--- memory ---\n%s\n--- disk-warm ---\n%s", baseline, warm)
	}
	if warmStats.Compile.Builds != 0 {
		t.Fatalf("disk-warm run rebuilt artifacts: %s", warmStats)
	}
	if warmStats.Compile.DiskHits != coldStats.Compile.Builds {
		t.Fatalf("disk-warm compile hits %d != cold builds %d", warmStats.Compile.DiskHits, coldStats.Compile.Builds)
	}
}

// warmStore populates a store directory and returns the baseline
// report plus how many compiles the cold run built.
func warmStore(t *testing.T, dir string) (string, pipeline.CacheStats) {
	t.Helper()
	return diskRun(t, pipeline.NewDiskCache(openTestStore(t, dir)))
}

// TestDiskBitFlippedEntryRebuilt corrupts every published entry on
// disk (one flipped payload byte each, past the store header): the
// store's sha256 check must demote them all to misses, and the next
// run must rebuild them and still produce baseline bytes.
func TestDiskBitFlippedEntryRebuilt(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	baseline, coldStats := warmStore(t, dir)

	st := openTestStore(t, dir)
	entries, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("warm store has no entries")
	}
	for _, e := range entries {
		path := filepath.Join(dir, e.Kind, e.Key)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 0x01
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	got, stats := diskRun(t, pipeline.NewDiskCache(openTestStore(t, dir)))
	if got != baseline {
		t.Fatalf("run over corrupted store diverges:\n--- baseline ---\n%s\n--- corrupted ---\n%s", baseline, got)
	}
	if stats.Compile.DiskHits != 0 {
		t.Fatalf("corrupted entries served as hits: %s", stats)
	}
	if stats.Compile.Builds != coldStats.Compile.Builds {
		t.Fatalf("rebuilds %d != original builds %d", stats.Compile.Builds, coldStats.Compile.Builds)
	}
	// The rebuilds republished: one more fresh cache sees only hits.
	_, again := diskRun(t, pipeline.NewDiskCache(openTestStore(t, dir)))
	if again.Compile.Builds != 0 {
		t.Fatalf("rebuilt entries were not republished: %s", again)
	}
}

// TestDiskMisfiledEntryRejected swaps two compile payloads between
// their keys. Each payload is perfectly valid in itself (intact
// framing sha, self-consistent fingerprint), so only the header's key
// binding can catch it — serving either would yield a wrong program.
func TestDiskMisfiledEntryRejected(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	baseline, _ := warmStore(t, dir)

	st := openTestStore(t, dir)
	entries, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, e := range entries {
		if e.Kind == pipeline.StoreKindCompile {
			keys = append(keys, e.Key)
		}
	}
	if len(keys) < 2 {
		t.Fatalf("need 2 compile entries to swap, have %d", len(keys))
	}
	a, ok := st.Get(pipeline.StoreKindCompile, keys[0])
	if !ok {
		t.Fatal("missing entry")
	}
	b, ok := st.Get(pipeline.StoreKindCompile, keys[1])
	if !ok {
		t.Fatal("missing entry")
	}
	if err := st.Put(pipeline.StoreKindCompile, keys[0], b); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(pipeline.StoreKindCompile, keys[1], a); err != nil {
		t.Fatal(err)
	}
	if err := pipeline.VerifyEntry(pipeline.StoreKindCompile, keys[0], b); err == nil {
		t.Fatal("VerifyEntry accepted a misfiled payload")
	}

	got, stats := diskRun(t, pipeline.NewDiskCache(openTestStore(t, dir)))
	if got != baseline {
		t.Fatalf("run over misfiled store diverges:\n--- baseline ---\n%s\n--- misfiled ---\n%s", baseline, got)
	}
	if stats.Compile.Builds < 2 {
		t.Fatalf("swapped entries not rebuilt: %s", stats)
	}
}

// TestDiskStaleClaimFromDeadProcessTakenOver drops a never-refreshed
// claim file into the store (what a killed process leaves behind) and
// runs the suite: the runner must take the claim over after StaleAfter
// instead of hanging, and still produce baseline bytes.
func TestDiskStaleClaimFromDeadProcessTakenOver(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	baseline, _ := diskRun(t, pipeline.NewCache())

	st, err := store.Open(dir, store.Options{StaleAfter: 50 * time.Millisecond, PollInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// A claim whose key no runner computes still exercises the reap
	// path... but a claim on a *real* key is the interesting case. We
	// cannot know compile keys a priori (they hash configs), so warm a
	// sibling store, copy one real key's claim in, and age it.
	warmDir := filepath.Join(t.TempDir(), "warm")
	warmStore(t, warmDir)
	wst := openTestStore(t, warmDir)
	entries, err := wst.List()
	if err != nil || len(entries) == 0 {
		t.Fatalf("warm sibling store: %v, %d entries", err, len(entries))
	}
	victim := entries[0]
	claim := filepath.Join(dir, "claims", victim.Kind+"."+victim.Key)
	if err := os.WriteFile(claim, []byte("pid 999999\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(claim, old, old); err != nil {
		t.Fatal(err)
	}

	got, stats := diskRun(t, pipeline.NewDiskCache(st))
	if got != baseline {
		t.Fatalf("run with dead claim diverges:\n--- baseline ---\n%s\n--- dead claim ---\n%s", baseline, got)
	}
	if stats.Compile.Builds == 0 {
		t.Fatalf("nothing built: %s", stats)
	}
	if _, err := os.Stat(claim); !os.IsNotExist(err) {
		t.Fatal("stale claim not reaped")
	}
}
