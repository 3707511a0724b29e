package pipeline

import (
	"testing"

	"pathsched/internal/bench"
	"pathsched/internal/core"
	"pathsched/internal/ir"
	"pathsched/internal/sched"
	"pathsched/internal/store"
)

// The artifact store must not serve a list-scheduled build to an
// exact-mode run (or vice versa), and must serve identical exact
// configs from one entry: the key gains a normalized exact dimension.
func TestExactCompileKeyDimension(t *testing.T) {
	var progFP, trainFP ir.Digest
	progFP[0], trainFP[0] = 1, 2
	cfg := core.DefaultConfig()
	key := func(ec sched.ExactConfig) ir.Digest {
		r := NewRunner(Options{Sched: sched.Options{Exact: ec}})
		return r.compileKey(progFP, trainFP, cfg, true)
	}
	off := key(sched.ExactConfig{})
	on := key(sched.ExactConfig{Enabled: true})
	if off == on {
		t.Fatal("exact on/off compiles share a cache key")
	}
	if key(sched.ExactConfig{Enabled: true, NodeBudget: 16}) == on {
		t.Fatal("node budgets 16 and default share a cache key")
	}
	if key(sched.ExactConfig{Enabled: true, SearchBudget: 5}) == on {
		t.Fatal("search budgets 5 and default share a cache key")
	}
	// Normalization: a disabled config's budgets are irrelevant, and an
	// explicit default budget equals the implied one.
	if key(sched.ExactConfig{NodeBudget: 99, SearchBudget: 77}) != off {
		t.Fatal("disabled exact configs with junk budgets miss the cache")
	}
	if key(sched.ExactConfig{Enabled: true, NodeBudget: 32, SearchBudget: 200000}) != on {
		t.Fatal("explicit default budgets miss the default-budget cache entry")
	}
}

// An exact-mode run reports gap stats on every scheduled scheme's
// measurement — including when the compile is read from the artifact
// store — and the counters are internally consistent.
func TestExactMeasurementGap(t *testing.T) {
	ec := sched.ExactConfig{Enabled: true, NodeBudget: 16, SearchBudget: 50000}
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	run := func() (*Result, CacheStats) {
		r := NewRunner(Options{
			ArtifactStore: st,
			Sched:         sched.Options{Exact: ec},
		})
		res, err := r.RunBenchmark(bench.ByName("wc"), []Scheme{SchemeM4, SchemeP4})
		if err != nil {
			t.Fatal(err)
		}
		cs, _ := r.CacheStats()
		return res, cs
	}
	first, _ := run()
	for _, s := range []Scheme{SchemeM4, SchemeP4} {
		g := first.ByScheme[s].Gap
		if g == nil {
			t.Fatalf("%s: no gap stats on exact-mode measurement", s)
		}
		if g.Blocks == 0 || g.Proved == 0 {
			t.Fatalf("%s: empty gap stats %+v", s, g)
		}
		if g.Blocks != g.Proved+g.Bounded || g.BoundedSearch > g.Bounded {
			t.Fatalf("%s: inconsistent gap stats %+v", s, g)
		}
		if g.ExactSpan > g.ListSpan {
			t.Fatalf("%s: exact span sum %d exceeds list %d", s, g.ExactSpan, g.ListSpan)
		}
	}
	second, cs := run() // same store: compiles are disk hits now
	if cs.Compile.DiskHits != 2 || cs.Compile.Builds != 0 {
		t.Fatalf("second run missed the artifact store: %s", cs)
	}
	for _, s := range []Scheme{SchemeM4, SchemeP4} {
		fg, sg := first.ByScheme[s].Gap, second.ByScheme[s].Gap
		if sg == nil {
			t.Fatalf("%s: store-hit measurement lost its gap stats", s)
		}
		if *fg != *sg {
			t.Fatalf("%s: gap stats differ across a store hit: %+v vs %+v", s, fg, sg)
		}
	}
	// List-scheduled runs must stay gap-free.
	plain := NewRunner(Options{})
	res, err := plain.RunBenchmark(bench.ByName("wc"), []Scheme{SchemeM4})
	if err != nil {
		t.Fatal(err)
	}
	if res.ByScheme[SchemeM4].Gap != nil {
		t.Fatal("list-scheduled measurement carries gap stats")
	}
}
