// Differential test pinning the content-addressed cache: a cached
// RunSuite — serial, parallel, or sharing one cache across runners —
// must render byte-identical reports to the cache-off serial pipeline.
// Run under -race, this is also the concurrency gate for the cache's
// single-flight path and for the immutable laid-out binaries it shares
// between scheme workers and runners.
package pipeline_test

import (
	"runtime"
	"sync"
	"testing"

	"pathsched/internal/machine"
	"pathsched/internal/pipeline"
)

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

	baseline, offRunner := run(pipeline.Options{Parallelism: 1, DisableProfileCache: true})
	if _, ok := offRunner.CacheStats(); ok {
		t.Fatal("DisableProfileCache runner still reports cache stats")
	}
	// Without the memo every scheme compiles exactly one build — the
	// testing build — and replays its layout once: no training-build
	// compile happens.
	if cs := offRunner.CompileStats(); cs.Compiles != perScheme || cs.LayoutRuns != perScheme {
		t.Errorf("cache-off run made %d compiles and %d layout replays, want %d each (one per benchmark × scheme)",
			cs.Compiles, cs.LayoutRuns, perScheme)
	}

	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 4 // exercise real interleaving even on a single-core runner
	}
	for _, par := range []int{1, 2, workers} {
		got, r := run(pipeline.Options{Parallelism: par})
		if got != baseline {
			t.Errorf("cache-on Parallelism=%d diverges from cache-off serial baseline:\n--- cache-off ---\n%s\n--- cache-on ---\n%s",
				par, baseline, got)
		}
		s, ok := r.CacheStats()
		if !ok {
			t.Fatalf("Parallelism=%d: cache enabled but no stats", par)
		}
		if s.Compile.Builds == 0 {
			t.Errorf("Parallelism=%d: cache saw no work (stats %s)", par, s)
		}
		if s.Layout != (pipeline.TierStats{}) {
			t.Errorf("Parallelism=%d: layout tier counted lookups %+v; replays run inside compile builds", par, s.Layout)
		}
		// One compile lookup per (benchmark, scheme), no compile beyond
		// the cache's own builds (no training-build compile happens),
		// and exactly one layout replay inside each build.
		lookups := s.Compile.MemHits + s.Compile.DiskHits + s.Compile.Builds + s.Compile.Dedups
		if lookups != perScheme {
			t.Errorf("Parallelism=%d: %d compile lookups, want %d (stats %s)", par, lookups, perScheme, s)
		}
		if cs := r.CompileStats(); cs.Compiles != s.Compile.Builds || cs.LayoutRuns != s.Compile.Builds {
			t.Errorf("Parallelism=%d: %d compiles and %d layout replays for %d compile-cache builds",
				par, cs.Compiles, cs.LayoutRuns, s.Compile.Builds)
		}
	}
}

// TestSharedCacheAcrossRunnersIsWarm is the ablation-sweep regime: a
// second runner handed the first runner's cache must produce the same
// bytes while serving every laid-out compile from cache; and two
// runners sharing one fresh cache concurrently must both produce those
// bytes while building each entry once. Under -race the concurrent
// case checks that measuring a shared binary in place never writes to
// it.
func TestSharedCacheAcrossRunnersIsWarm(t *testing.T) {
	names := []string{"alt", "wc"}
	suite := func(shared *pipeline.Cache) ([]*pipeline.Result, error) {
		c := machine.DefaultICache()
		r := pipeline.NewRunner(pipeline.Options{Cache: &c, Parallelism: 1, ProfileCache: shared})
		return r.RunSuite(names, pipeline.AllSchemes())
	}
	run := func(t *testing.T, shared *pipeline.Cache) string {
		res, err := suite(shared)
		if err != nil {
			t.Fatal(err)
		}
		return renderAll(t, res)
	}

	t.Run("sequential", func(t *testing.T) {
		shared := pipeline.NewCache()
		first := run(t, shared)
		before := shared.Stats()
		second := run(t, shared)
		after := shared.Stats()
		if first != second {
			t.Fatalf("warm re-run diverges from cold run:\n--- cold ---\n%s\n--- warm ---\n%s", first, second)
		}
		if after.Compile.Builds != before.Compile.Builds {
			t.Errorf("warm re-run recompiled: builds went %d -> %d", before.Compile.Builds, after.Compile.Builds)
		}
		wantHits := before.Compile.Builds + before.Compile.MemHits + before.Compile.Dedups
		if gotHits := after.Compile.MemHits - before.Compile.MemHits; gotHits != wantHits {
			t.Errorf("warm re-run compile mem hits = %d, want %d (every lookup a hit)", gotHits, wantHits)
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		want := run(t, pipeline.NewCache())
		shared := pipeline.NewCache()
		var res [2][]*pipeline.Result
		var errs [2]error
		var wg sync.WaitGroup
		for i := range res {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				res[i], errs[i] = suite(shared)
			}(i)
		}
		wg.Wait()
		for i := range res {
			if errs[i] != nil {
				t.Fatalf("runner %d: %v", i, errs[i])
			}
			if got := renderAll(t, res[i]); got != want {
				t.Errorf("runner %d over a concurrently shared cache diverges:\n--- alone ---\n%s\n--- shared ---\n%s", i, want, got)
			}
		}
		s := shared.Stats()
		perRun := int64(len(names) * len(pipeline.AllSchemes()))
		if s.Compile.Builds != perRun {
			t.Errorf("two runners built %d entries, want %d (each once)", s.Compile.Builds, perRun)
		}
		if lookups := s.Compile.Builds + s.Compile.MemHits + s.Compile.Dedups; lookups != 2*perRun {
			t.Errorf("two runners made %d lookups, want %d (stats %s)", lookups, 2*perRun, s)
		}
	})
}
