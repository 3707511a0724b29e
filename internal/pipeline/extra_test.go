package pipeline

import (
	"strings"
	"testing"

	"pathsched/internal/bench"
	"pathsched/internal/core"
	"pathsched/internal/interp"
	"pathsched/internal/ir"
	"pathsched/internal/machine"
	"pathsched/internal/sched"
)

func TestFormHookApplies(t *testing.T) {
	// Forbid all enlargement through the hook; formation stats must
	// show zero copies.
	r := NewRunner(Options{Form: func(c *core.Config) { c.MinExecFreq = 1 << 40 }})
	res, err := r.RunBenchmark(bench.ByName("alt"), []Scheme{SchemeP4})
	if err != nil {
		t.Fatal(err)
	}
	if res.ByScheme[SchemeP4].FormStats.EnlargeCopies != 0 {
		t.Fatal("Form hook did not reach the formation config")
	}
}

func TestSchedOptionsReachCompactor(t *testing.T) {
	on := NewRunner(Options{})
	off := NewRunner(Options{Sched: sched.Options{DisableRenaming: true}})
	rOn, err := on.RunBenchmark(bench.ByName("corr"), []Scheme{SchemeP4})
	if err != nil {
		t.Fatal(err)
	}
	rOff, err := off.RunBenchmark(bench.ByName("corr"), []Scheme{SchemeP4})
	if err != nil {
		t.Fatal(err)
	}
	if rOff.ByScheme[SchemeP4].IdealCycles <= rOn.ByScheme[SchemeP4].IdealCycles {
		t.Fatalf("disabling renaming must cost cycles: %d vs %d",
			rOff.ByScheme[SchemeP4].IdealCycles, rOn.ByScheme[SchemeP4].IdealCycles)
	}
}

func TestRealisticMachineReachesSchedules(t *testing.T) {
	mc := machine.Default()
	mc.Realistic = true
	unit, err := NewRunner(Options{}).RunBenchmark(bench.ByName("eqn"), []Scheme{SchemeBB})
	if err != nil {
		t.Fatal(err)
	}
	real, err := NewRunner(Options{Sched: sched.Options{Machine: mc}}).RunBenchmark(bench.ByName("eqn"), []Scheme{SchemeBB})
	if err != nil {
		t.Fatal(err)
	}
	if real.ByScheme[SchemeBB].IdealCycles <= unit.ByScheme[SchemeBB].IdealCycles {
		t.Fatalf("realistic latencies must lengthen schedules: %d vs %d",
			real.ByScheme[SchemeBB].IdealCycles, unit.ByScheme[SchemeBB].IdealCycles)
	}
}

func TestPipelineDeterministic(t *testing.T) {
	run := func() *Measurement {
		c := machine.DefaultICache()
		r := NewRunner(Options{Cache: &c})
		res, err := r.RunBenchmark(bench.ByName("wc"), []Scheme{SchemeP4})
		if err != nil {
			t.Fatal(err)
		}
		return res.ByScheme[SchemeP4]
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.DynInstrs != b.DynInstrs ||
		a.CacheMisses != b.CacheMisses || a.CodeBytes != b.CodeBytes {
		t.Fatalf("pipeline nondeterministic: %+v vs %+v", a, b)
	}
}

func TestCheckSameShapeDetectsDivergence(t *testing.T) {
	a := bench.ByName("alt").Build(bench.ByName("alt").Test)
	b := bench.ByName("alt").Build(bench.ByName("alt").Test)
	if err := checkSameShape(a, b); err != nil {
		t.Fatalf("identical builds flagged: %v", err)
	}
	// Perturb b's structure.
	p := b.Proc(0)
	blk := p.AddBlock(ir.NoBlock)
	blk.Instrs = []ir.Instr{ir.Ret(0)}
	if err := checkSameShape(a, b); err == nil {
		t.Fatal("block-count divergence not detected")
	} else if !strings.Contains(err.Error(), "block count") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestSameBehaviourDetectsDivergence(t *testing.T) {
	r1, err := NewRunner(Options{}).RunBenchmark(bench.ByName("corr"), []Scheme{SchemeBB})
	if err != nil {
		t.Fatal(err)
	}
	_ = r1
	// sameBehaviour is exercised on every pipeline run; check its
	// negative cases directly.
	ra := &fakeRun{ret: 1, out: []int64{1, 2}}
	rb := &fakeRun{ret: 2, out: []int64{1, 2}}
	if err := sameBehaviour(ra.res(), rb.res()); err == nil {
		t.Fatal("ret divergence not detected")
	}
	rb = &fakeRun{ret: 1, out: []int64{1}}
	if err := sameBehaviour(ra.res(), rb.res()); err == nil {
		t.Fatal("output length divergence not detected")
	}
	rb = &fakeRun{ret: 1, out: []int64{1, 3}}
	if err := sameBehaviour(ra.res(), rb.res()); err == nil {
		t.Fatal("output value divergence not detected")
	}
}

type fakeRun struct {
	ret int64
	out []int64
}

func (f *fakeRun) res() *interp.Result { return &interp.Result{Ret: f.ret, Output: f.out} }

// TestFullSuiteAllSchemesCorrect is the heavyweight integration test:
// every benchmark under every scheme must behave identically to the
// unscheduled original (the pipeline enforces this internally; here we
// simply drive the whole matrix). Skipped with -short.
func TestFullSuiteAllSchemesCorrect(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix is slow")
	}
	c := machine.DefaultICache()
	r := NewRunner(Options{Cache: &c})
	results, err := r.RunSuite(nil, AllSchemes())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(bench.Names()) {
		t.Fatalf("got %d results, want %d", len(results), len(bench.Names()))
	}
	for _, res := range results {
		bb := res.ByScheme[SchemeBB]
		for s, m := range res.ByScheme {
			if m.Cycles <= 0 || m.DynInstrs <= 0 {
				t.Errorf("%s/%s: empty measurement", res.Name, s)
			}
			if s != SchemeBB && m.IdealCycles >= bb.IdealCycles {
				// Superblock scheduling should never lose to BB on
				// ideal cycles by construction of the suite; flag it
				// as informational rather than fatal.
				t.Logf("note: %s/%s ideal %d >= BB %d", res.Name, s, m.IdealCycles, bb.IdealCycles)
			}
		}
	}
}
