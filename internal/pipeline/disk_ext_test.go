// Differential tests for the disk tier: a store-backed cache must
// render byte-identical reports to the memory-only pipeline — cold,
// disk-warm across a simulated process boundary (fresh cache, same
// store directory), and in the face of corrupted or misfiled entries,
// which may cost rebuilds but never change a byte of output.
package pipeline_test

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"pathsched/internal/machine"
	"pathsched/internal/pipeline"
	"pathsched/internal/store"
)

var diskTestNames = []string{"alt", "wc"}

// diskSuite runs the suite serially with a fresh Runner over cache.
func diskSuite(cache *pipeline.Cache) ([]*pipeline.Result, error) {
	c := machine.DefaultICache()
	r := pipeline.NewRunner(pipeline.Options{Cache: &c, Parallelism: 1, ProfileCache: cache})
	return r.RunSuite(diskTestNames, pipeline.AllSchemes())
}

// diskRun runs the suite with a fresh Runner over the given cache,
// returning the rendered report and the cache stats delta.
func diskRun(t *testing.T, cache *pipeline.Cache) (string, pipeline.CacheStats) {
	t.Helper()
	before := cache.Stats()
	res, err := diskSuite(cache)
	if err != nil {
		t.Fatal(err)
	}
	after := cache.Stats()
	return renderAll(t, res), pipeline.CacheStats{Compile: subTier(after.Compile, before.Compile)}
}

func subTier(a, b pipeline.TierStats) pipeline.TierStats {
	return pipeline.TierStats{
		MemHits:  a.MemHits - b.MemHits,
		DiskHits: a.DiskHits - b.DiskHits,
		Builds:   a.Builds - b.Builds,
		Dedups:   a.Dedups - b.Dedups,
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

// TestConcurrentRunnersShareOneStore is the claimless sharing case:
// two runners, each with its own cache (two processes' memory tiers),
// run the suite at once over one empty store, so they race to build
// and publish the same keys. Both must print the memory-only bytes,
// every entry must verify, no temp file may be left, and a third run
// must read every compile from disk.
func TestConcurrentRunnersShareOneStore(t *testing.T) {
	baseline, memStats := diskRun(t, pipeline.NewCache())
	dir := filepath.Join(t.TempDir(), "store")
	var (
		wg   sync.WaitGroup
		res  [2][]*pipeline.Result
		errs [2]error
	)
	for i := range res {
		cache := pipeline.NewDiskCache(openTestStore(t, dir))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res[i], errs[i] = diskSuite(cache)
		}(i)
	}
	wg.Wait()
	for i := range res {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got := renderAll(t, res[i]); got != baseline {
			t.Fatalf("runner %d over the shared store diverges:\n--- memory ---\n%s\n--- shared ---\n%s", i, baseline, got)
		}
	}

	st := openTestStore(t, dir)
	entries, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(entries)) != memStats.Compile.Builds {
		t.Fatalf("shared store holds %d entries, the suite builds %d compiles", len(entries), memStats.Compile.Builds)
	}
	for _, e := range entries {
		payload, ok := st.Get(e.Kind, e.Key)
		if !ok {
			t.Fatalf("%s/%s: bad framing", e.Kind, e.Key)
		}
		if err := pipeline.VerifyEntry(e.Kind, e.Key, payload); err != nil {
			t.Fatalf("%s/%s: %v", e.Kind, e.Key, err)
		}
	}
	if tmp, err := os.ReadDir(filepath.Join(dir, "tmp")); err != nil || len(tmp) != 0 {
		t.Fatalf("tmp/ after the shared runs: %d files, err %v", len(tmp), err)
	}

	warm, warmStats := diskRun(t, pipeline.NewDiskCache(openTestStore(t, dir)))
	if warm != baseline {
		t.Fatalf("disk-warm run diverges:\n--- memory ---\n%s\n--- disk-warm ---\n%s", baseline, warm)
	}
	if warmStats.Compile.Builds != 0 || warmStats.Compile.DiskHits != int64(len(entries)) {
		t.Fatalf("third run over the shared store: %s, want %d disk hits and 0 builds", warmStats, len(entries))
	}
}

// TestUnwritableStoreFallsBackToMemory: a store that cannot publish
// (its tmp/ replaced by a regular file, which fails for root too, unlike
// a chmod) must cost the run its disk tier and nothing else. The run
// prints the memory-only bytes, builds every compile, returns no error,
// and leaves no entry behind.
func TestUnwritableStoreFallsBackToMemory(t *testing.T) {
	baseline, memStats := diskRun(t, pipeline.NewCache())
	dir := filepath.Join(t.TempDir(), "store")
	st := openTestStore(t, dir)
	tmp := filepath.Join(dir, "tmp")
	if err := os.Remove(tmp); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tmp, []byte("not a directory\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	got, stats := diskRun(t, pipeline.NewDiskCache(st))
	if got != baseline {
		t.Fatalf("run over an unwritable store diverges:\n--- memory ---\n%s\n--- unwritable ---\n%s", baseline, got)
	}
	c := stats.Compile
	if c.Builds != memStats.Compile.Builds || c.MemHits+c.DiskHits+c.Dedups != 0 {
		t.Fatalf("run over an unwritable store: %s, want every one of %d lookups a build", stats, memStats.Compile.Builds)
	}
	entries, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("unwritable store holds %d entries", len(entries))
	}
}
