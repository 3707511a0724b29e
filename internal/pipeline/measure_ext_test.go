package pipeline_test

import (
	"encoding/json"
	"testing"

	"pathsched/internal/bench"
	"pathsched/internal/machine"
	"pathsched/internal/pipeline"
	"pathsched/internal/validate"
)

// TestBoundedCompilesAreExecuted: a compile with a Bounded procedure
// carries no proof to replay on, so its scheme is measured by executing
// the compile, output check included, and counted as executed, while a
// proved compile is walked against the reference run's trace. Forcing
// one benchmark's every compile to Bounded must leave each scheme's
// measurement as replay gives it, byte for byte.
func TestBoundedCompilesAreExecuted(t *testing.T) {
	c := machine.DefaultICache()
	opts := pipeline.Options{Cache: &c, Parallelism: 1}
	schemes := pipeline.AllSchemes()
	n := int64(len(schemes))
	b := bench.ByName("wc")

	replayed := pipeline.NewRunner(opts)
	want, err := replayed.RunBenchmark(b, schemes)
	if err != nil {
		t.Fatal(err)
	}
	executed := pipeline.NewRunnerWithBudgets(opts, validate.Options{NodeBudget: 1})
	got, err := executed.RunBenchmark(b, schemes)
	if err != nil {
		t.Fatal(err)
	}
	if cs := replayed.CompileStats(); cs.MeasureReplays != n || cs.MeasureRuns != 0 {
		t.Errorf("proved compiles: %d replayed / %d executed, want %d / 0", cs.MeasureReplays, cs.MeasureRuns, n)
	}
	if cs := executed.CompileStats(); cs.MeasureReplays != 0 || cs.MeasureRuns != n {
		t.Errorf("bounded compiles: %d replayed / %d executed, want 0 / %d", cs.MeasureReplays, cs.MeasureRuns, n)
	} else if cs.ProcsShared == 0 {
		// Shares carry their Bounded verdicts: every compile still
		// executes.
		t.Error("bounded compiles shared no procedure")
	}
	for _, s := range schemes {
		w, g := want.ByScheme[s], got.ByScheme[s]
		if w.Validation == nil || w.Validation.Bounded != 0 || w.Validation.Proved == 0 {
			t.Errorf("%s: default budgets give %+v, want every procedure proved", s, w.Validation)
		}
		if g.Validation == nil || g.Validation.Bounded == 0 {
			t.Fatalf("%s: a one-node budget gives %+v, want Bounded procedures", s, g.Validation)
		}
		wj, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		gj, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		if string(wj) != string(gj) {
			t.Errorf("%s: executed measurement differs from the replayed one:\nexecuted %s\nreplayed %s", s, gj, wj)
		}
	}
}
