// Differential tests for the artifact store: a store-backed run must
// render byte-identical reports to the storeless pipeline — cold,
// warm across a simulated process boundary (fresh runner, same store
// directory), serial and parallel, and in the face of corrupted or
// misfiled entries, which may cost rebuilds but never change a byte of
// output. Run under -race, these are also the concurrency gate for
// scheme workers publishing to and reading from one store.
package pipeline_test

import (
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"pathsched/internal/machine"
	"pathsched/internal/pipeline"
	"pathsched/internal/store"
)

var diskTestNames = []string{"alt", "wc"}

// diskTestCompiles is how many compiles one run over diskTestNames
// makes: one per benchmark and scheme.
var diskTestCompiles = int64(len(diskTestNames) * len(pipeline.AllSchemes()))

// diskSuite runs the suite serially with a fresh Runner over st (nil:
// no store).
func diskSuite(st *store.Store) ([]*pipeline.Result, pipeline.TierStats, error) {
	c := machine.DefaultICache()
	r := pipeline.NewRunner(pipeline.Options{Cache: &c, Parallelism: 1, ArtifactStore: st})
	res, err := r.RunSuite(diskTestNames, pipeline.AllSchemes())
	s, _ := r.CacheStats()
	return res, s.Compile, err
}

// diskRun is diskSuite returning the rendered report.
func diskRun(t *testing.T, st *store.Store) (string, pipeline.TierStats) {
	t.Helper()
	res, s, err := diskSuite(st)
	if err != nil {
		t.Fatal(err)
	}
	return renderAll(t, res), s
}

func openTestStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCachedSuiteMatchesUncachedByteForByte: at every parallelism, a
// cold run over a fresh store and a warm rerun by a fresh runner must
// render the storeless serial pipeline's bytes. The cold run builds
// each (benchmark, scheme) once and replays its layout once inside the
// build; the warm run builds nothing and compiles nothing.
func TestCachedSuiteMatchesUncachedByteForByte(t *testing.T) {
	// Includes microbenchmarks whose training and test inputs build
	// identical programs (alt, ph, corr) plus one (wc) where the two
	// builds differ.
	names := []string{"alt", "ph", "corr", "wc"}
	schemes := pipeline.AllSchemes()
	perScheme := int64(len(names) * len(schemes))
	run := func(opts pipeline.Options) (string, *pipeline.Runner) {
		c := machine.DefaultICache()
		opts.Cache = &c
		r := pipeline.NewRunner(opts)
		res, err := r.RunSuite(names, schemes)
		if err != nil {
			t.Fatalf("RunSuite(%+v): %v", opts, err)
		}
		return renderAll(t, res), r
	}

	baseline, storeless := run(pipeline.Options{Parallelism: 1})
	if _, ok := storeless.CacheStats(); ok {
		t.Fatal("storeless runner reports store stats")
	}
	// Every scheme compiles exactly one build — the testing build — and
	// replays its layout once: no training-build compile happens.
	if cs := storeless.CompileStats(); cs.Compiles != perScheme || cs.LayoutRuns != perScheme {
		t.Errorf("storeless run made %d compiles and %d layout replays, want %d each (one per benchmark × scheme)",
			cs.Compiles, cs.LayoutRuns, perScheme)
	}

	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 4 // exercise real interleaving even on a single-core runner
	}
	for _, par := range []int{1, 2, workers} {
		dir := filepath.Join(t.TempDir(), "store")
		for _, pass := range []string{"cold", "warm"} {
			got, r := run(pipeline.Options{Parallelism: par, ArtifactStore: openTestStore(t, dir)})
			if got != baseline {
				t.Errorf("%s store Parallelism=%d diverges from the storeless serial baseline:\n--- storeless ---\n%s\n--- %s ---\n%s",
					pass, par, baseline, pass, got)
			}
			s, ok := r.CacheStats()
			if !ok {
				t.Fatalf("%s Parallelism=%d: store attached but no stats", pass, par)
			}
			if s.Layout != (pipeline.TierStats{}) {
				t.Errorf("%s Parallelism=%d: layout tier counted lookups %+v; replays run inside compile builds", pass, par, s.Layout)
			}
			wantBuilds, wantHits := perScheme, int64(0)
			if pass == "warm" {
				wantBuilds, wantHits = 0, perScheme
			}
			if s.Compile.Builds != wantBuilds || s.Compile.DiskHits != wantHits {
				t.Errorf("%s Parallelism=%d: %s, want %d disk hits / %d builds", pass, par, s, wantHits, wantBuilds)
			}
			if cs := r.CompileStats(); cs.Compiles != wantBuilds || cs.LayoutRuns != wantBuilds {
				t.Errorf("%s Parallelism=%d: %d compiles and %d layout replays for %d builds",
					pass, par, cs.Compiles, cs.LayoutRuns, wantBuilds)
			}
		}
	}
}

// TestDiskWarmMatchesMemoryByteForByte is the serial store
// differential: a cold store-backed run matches the storeless baseline
// and leaves one compile entry (a laid-out binary) per build and
// nothing else in the store, and a second run through a fresh runner
// on the same store (the process-restart regime the store exists for)
// matches again while serving every binary from disk.
func TestDiskWarmMatchesMemoryByteForByte(t *testing.T) {
	baseline, _ := diskRun(t, nil)

	dir := filepath.Join(t.TempDir(), "store")
	cold, coldStats := diskRun(t, openTestStore(t, dir))
	if cold != baseline {
		t.Fatalf("store-backed cold run diverges from storeless baseline:\n--- storeless ---\n%s\n--- disk ---\n%s", baseline, cold)
	}
	if coldStats.Builds != diskTestCompiles || coldStats.DiskHits != 0 {
		t.Fatalf("cold run over an empty store: %s, want 0 disk hits / %d builds", coldStats, diskTestCompiles)
	}
	entries, err := openTestStore(t, dir).List()
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(entries)) != coldStats.Builds {
		t.Fatalf("cold store holds %d entries for %d builds", len(entries), coldStats.Builds)
	}
	for _, e := range entries {
		if e.Kind != pipeline.StoreKindCompile {
			t.Fatalf("cold store holds a %s/ entry; only %s/ entries are published", e.Kind, pipeline.StoreKindCompile)
		}
	}

	// Fresh runner, same directory: everything is a disk hit.
	warm, warmStats := diskRun(t, openTestStore(t, dir))
	if warm != baseline {
		t.Fatalf("disk-warm run diverges from baseline:\n--- storeless ---\n%s\n--- disk-warm ---\n%s", baseline, warm)
	}
	if warmStats.Builds != 0 || warmStats.DiskHits != coldStats.Builds {
		t.Fatalf("disk-warm run: %s, want %d disk hits / 0 builds", warmStats, coldStats.Builds)
	}
}

// TestDiskBitFlippedEntryRebuilt corrupts every published entry on
// disk (one flipped payload byte each, past the store header): the
// store's sha256 check must demote them all to misses, and the next
// run must rebuild them and still produce baseline bytes.
func TestDiskBitFlippedEntryRebuilt(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	baseline, coldStats := diskRun(t, openTestStore(t, dir))

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

	got, stats := diskRun(t, openTestStore(t, dir))
	if got != baseline {
		t.Fatalf("run over corrupted store diverges:\n--- baseline ---\n%s\n--- corrupted ---\n%s", baseline, got)
	}
	if stats.DiskHits != 0 {
		t.Fatalf("corrupted entries served as hits: %s", stats)
	}
	if stats.Builds != coldStats.Builds {
		t.Fatalf("rebuilds %d != original builds %d", stats.Builds, coldStats.Builds)
	}
	// The rebuilds republished: one more fresh runner sees only hits.
	_, again := diskRun(t, openTestStore(t, dir))
	if again.Builds != 0 {
		t.Fatalf("rebuilt entries were not republished: %s", again)
	}
}

// TestDiskMisfiledEntryRejected swaps two compile payloads between
// their keys. Each payload is perfectly valid in itself (intact
// framing sha, self-consistent fingerprint), so only the header's key
// binding can catch it — serving either would yield a wrong program.
func TestDiskMisfiledEntryRejected(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	baseline, _ := diskRun(t, openTestStore(t, dir))

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

	got, stats := diskRun(t, openTestStore(t, dir))
	if got != baseline {
		t.Fatalf("run over misfiled store diverges:\n--- baseline ---\n%s\n--- misfiled ---\n%s", baseline, got)
	}
	if stats.Builds < 2 {
		t.Fatalf("swapped entries not rebuilt: %s", stats)
	}
}

// TestConcurrentRunnersShareOneStore is the claimless sharing case:
// two runners (two processes) run the suite at once over one empty
// store, so they race to build and publish the same keys. Both must
// print the storeless bytes, every entry must verify, no temp file may
// be left, and a third run must read every compile from disk.
func TestConcurrentRunnersShareOneStore(t *testing.T) {
	baseline, _ := diskRun(t, nil)
	dir := filepath.Join(t.TempDir(), "store")
	var (
		wg   sync.WaitGroup
		res  [2][]*pipeline.Result
		errs [2]error
	)
	for i := range res {
		st := openTestStore(t, dir)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res[i], _, errs[i] = diskSuite(st)
		}(i)
	}
	wg.Wait()
	for i := range res {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got := renderAll(t, res[i]); got != baseline {
			t.Fatalf("runner %d over the shared store diverges:\n--- storeless ---\n%s\n--- shared ---\n%s", i, baseline, got)
		}
	}

	st := openTestStore(t, dir)
	entries, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(entries)) != diskTestCompiles {
		t.Fatalf("shared store holds %d entries, the suite builds %d compiles", len(entries), diskTestCompiles)
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

	warm, warmStats := diskRun(t, openTestStore(t, dir))
	if warm != baseline {
		t.Fatalf("disk-warm run diverges:\n--- storeless ---\n%s\n--- disk-warm ---\n%s", baseline, warm)
	}
	if warmStats.Builds != 0 || warmStats.DiskHits != int64(len(entries)) {
		t.Fatalf("third run over the shared store: %s, want %d disk hits and 0 builds", warmStats, len(entries))
	}
}

// TestUnwritableStoreFallsBackToMemory: a store that cannot publish
// (its tmp/ replaced by a regular file, which fails for root too, unlike
// a chmod) must cost the run its store and nothing else. The run
// prints the storeless bytes, builds every compile, returns no error,
// and leaves no entry behind.
func TestUnwritableStoreFallsBackToMemory(t *testing.T) {
	baseline, _ := diskRun(t, nil)
	dir := filepath.Join(t.TempDir(), "store")
	st := openTestStore(t, dir)
	tmp := filepath.Join(dir, "tmp")
	if err := os.Remove(tmp); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tmp, []byte("not a directory\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	got, stats := diskRun(t, st)
	if got != baseline {
		t.Fatalf("run over an unwritable store diverges:\n--- storeless ---\n%s\n--- unwritable ---\n%s", baseline, got)
	}
	if stats.Builds != diskTestCompiles || stats.DiskHits != 0 {
		t.Fatalf("run over an unwritable store: %s, want every one of %d lookups a build", stats, diskTestCompiles)
	}
	entries, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("unwritable store holds %d entries", len(entries))
	}
}
