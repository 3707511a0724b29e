// Differential test pinning the content-addressed cache: a cached
// RunSuite — serial, parallel, or sharing one cache across runners —
// must render byte-identical reports to the cache-off serial pipeline.
// Run under -race, this is also the concurrency gate for the cache's
// single-flight path and for the immutable masters and frozen layout
// profiles it shares between scheme workers.
package pipeline_test

import (
	"runtime"
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
		if s.Compile.Builds == 0 || s.Layout.Builds == 0 {
			t.Errorf("Parallelism=%d: cache saw no work (stats %s)", par, s)
		}
		// One compile lookup and one layout lookup per (benchmark,
		// scheme), and no compile beyond the cache's own builds: no
		// training-build compile happens.
		lookups := func(t pipeline.TierStats) int64 { return t.MemHits + t.DiskHits + t.Builds + t.Dedups }
		if c, l := lookups(s.Compile), lookups(s.Layout); c != perScheme || l != perScheme {
			t.Errorf("Parallelism=%d: %d compile and %d layout lookups, want %d each (stats %s)", par, c, l, perScheme, s)
		}
		if cs := r.CompileStats(); cs.Compiles != s.Compile.Builds {
			t.Errorf("Parallelism=%d: %d compiles for %d compile-cache builds", par, cs.Compiles, s.Compile.Builds)
		}
	}
}

// TestSharedCacheAcrossRunnersIsWarm is the ablation-sweep regime: a
// second runner handed the first runner's cache must produce the same
// bytes while serving every compile and layout-profiling run from
// cache.
func TestSharedCacheAcrossRunnersIsWarm(t *testing.T) {
	names := []string{"alt", "wc"}
	shared := pipeline.NewCache()
	run := func() string {
		c := machine.DefaultICache()
		r := pipeline.NewRunner(pipeline.Options{Cache: &c, Parallelism: 1, ProfileCache: shared})
		res, err := r.RunSuite(names, pipeline.AllSchemes())
		if err != nil {
			t.Fatal(err)
		}
		return renderAll(t, res)
	}
	first := run()
	before := shared.Stats()
	second := run()
	after := shared.Stats()
	if first != second {
		t.Fatalf("warm re-run diverges from cold run:\n--- cold ---\n%s\n--- warm ---\n%s", first, second)
	}
	if after.Compile.Builds != before.Compile.Builds || after.Layout.Builds != before.Layout.Builds {
		t.Errorf("warm re-run recompiled: builds went %d/%d -> %d/%d",
			before.Compile.Builds, before.Layout.Builds, after.Compile.Builds, after.Layout.Builds)
	}
	wantHits := before.Compile.Builds + before.Compile.MemHits + before.Compile.Dedups
	if gotHits := after.Compile.MemHits - before.Compile.MemHits; gotHits != wantHits {
		t.Errorf("warm re-run compile mem hits = %d, want %d (every lookup a hit)", gotHits, wantHits)
	}
}
