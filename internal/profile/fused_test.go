package profile

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"pathsched/internal/interp"
	"pathsched/internal/ir"
	"pathsched/internal/ir/irtest"
)

// Differential gates for the profiling paths: the batched path
// profiler and the counter-fused edge/call profiles must equal what the
// per-event oracles (oracle_test.go) gather from the same run's batch
// stream — the edge profile byte for byte via its text serialization,
// the path profile sequence for sequence. Run under -race in CI, these
// also shake out unsynchronized state in the batch seam.

// loopCallProg builds an executable program with a counted loop, a
// conditional, and a call into a leaf, so one run exercises edges,
// multi-destination branches, and cross-procedure batch attribution.
func loopCallProg(n int64) *ir.Program {
	bd := ir.NewBuilder("loopcall", 16)
	main := bd.Proc("main")
	leaf := bd.Proc("leaf")

	lb := leaf.NewBlock()
	lb.Add(ir.AddI(0, ir.RegArg0, 2))
	lb.Ret(0)

	entry, head, body, odd, latch, exit := main.NewBlock(), main.NewBlock(),
		main.NewBlock(), main.NewBlock(), main.NewBlock(), main.NewBlock()
	const i, sum, c, t = 1, 2, 3, 4
	entry.Add(ir.MovI(i, 0), ir.MovI(sum, 0))
	entry.Jmp(head.ID())
	head.Add(ir.CmpLTI(c, i, n))
	head.Br(c, body.ID(), exit.ID())
	body.Add(ir.AndI(t, i, 1))
	body.Br(t, odd.ID(), latch.ID())
	odd.Add(ir.Call(t, leaf.ID(), latch.ID(), i))
	latch.Add(ir.Add(sum, sum, i), ir.AddI(i, i, 1))
	latch.Jmp(head.ID())
	exit.Add(ir.Emit(sum))
	exit.Ret(sum)
	bd.SetMain(main.ID())
	return bd.Finish()
}

// recurseProg builds a self-recursive program, so batched records of
// nested activations interleave with Begin/End flush boundaries.
func recurseProg(depth int64) *ir.Program {
	bd := ir.NewBuilder("recurse", 8)
	main := bd.Proc("main")
	rec := bd.Proc("rec")

	check, base, down := rec.NewBlock(), rec.NewBlock(), rec.NewBlock()
	const arg, c, r = ir.RegArg0, 1, 2
	check.Add(ir.CmpLTI(c, arg, 1))
	check.Br(c, base.ID(), down.ID())
	base.Add(ir.MovI(r, 0))
	base.Ret(r)
	down.Add(ir.AddI(r, arg, -1), ir.Call(r, rec.ID(), ir.NoBlock, r), ir.AddI(r, r, 1))
	down.Ret(r)

	mb := main.NewBlock()
	mb.Add(ir.MovI(1, depth), ir.Call(2, rec.ID(), ir.NoBlock, 1), ir.Emit(2))
	mb.Ret(2)
	bd.SetMain(main.ID())
	return bd.Finish()
}

// wideProg numbers its scratch registers from base: base 300 puts
// them past 255, which the engine reaches only through dense frame
// slots; base 2 is its narrow twin. A loop and a call give it edges,
// batches and a call-graph arc.
func wideProg(base ir.Reg) *ir.Program {
	i, c := base, base+1
	bd := ir.NewBuilder("wideprof", 8)
	main, leaf := bd.Proc("main"), bd.Proc("leaf")
	lb := leaf.NewBlock()
	lb.Add(ir.AddI(0, ir.RegArg0, 1))
	lb.Ret(0)
	entry, loop, exit := main.NewBlock(), main.NewBlock(), main.NewBlock()
	entry.Add(ir.MovI(i, 0))
	entry.Jmp(loop.ID())
	loop.Add(ir.AddI(i, i, 7), ir.CmpLTI(c, i, 42))
	loop.Br(c, loop.ID(), exit.ID())
	exit.Add(ir.Call(i, leaf.ID(), ir.NoBlock, i), ir.Emit(i))
	exit.Ret(i)
	bd.SetMain(main.ID())
	return bd.Finish()
}

// manyRegsProg names r0..r299 in main: more than the engine's 256
// frame slots.
func manyRegsProg() *ir.Program {
	bd := ir.NewBuilder("manyregs", 8)
	b := bd.Proc("main").NewBlock()
	for r := ir.Reg(1); r < 300; r++ {
		b.Add(ir.MovI(r, int64(r)))
	}
	b.Ret(299)
	return bd.Finish()
}

// diffTrain pins every profiling path against the per-event oracles on
// one program and config: one counted run feeds a batched path
// profiler and, through perEvent, the oracles; its path profile, its
// counter-fused edge and call profiles, and Train's profiles must all
// equal what the oracles gathered.
func diffTrain(t *testing.T, name string, prog *ir.Program, cfg PathConfig) {
	t.Helper()

	oep := newEdgeCounter(prog)
	opp := NewOraclePathProfiler(prog, cfg)
	ocg := NewCallGraphProfiler()
	pp := NewPathProfiler(prog, cfg)
	_, ec, err := interp.EngineFor(prog).RunCounted(interp.Config{Batch: fanout{pp, perEvent{oep, opp, ocg}}})
	if err != nil {
		t.Fatalf("%s: counted run: %v", name, err)
	}
	if batches, recs := pp.BatchStats(); batches == 0 || recs == 0 {
		t.Fatalf("%s: batched run delivered no batches (batches=%d records=%d)", name, batches, recs)
	}
	requireOracleProfile(t, name+": batched path profile", pp.Profile(), opp)
	want := oep.Profile().WriteText()
	if got := EdgeProfileFromCounts(prog, ec).WriteText(); got != want {
		t.Fatalf("%s: fused edge profile differs from the per-event oracle\nfused:\n%s\noracle:\n%s",
			name, got, want)
	}
	if got := CallCountsFromCounts(ec); !reflect.DeepEqual(got, ocg.Counts()) {
		t.Fatalf("%s: fused call counts = %v, oracle = %v", name, got, ocg.Counts())
	}

	tp, err := Train(prog, cfg)
	if err != nil {
		t.Fatalf("%s: Train: %v", name, err)
	}
	if tp.Stats.Batches == 0 || tp.Stats.Records == 0 {
		t.Fatalf("%s: Train stats = %+v, want batched delivery", name, tp.Stats)
	}
	if tp.Edge.WriteText() != want {
		t.Fatalf("%s: Train edge profile differs from the per-event oracle", name)
	}
	requireOracleProfile(t, name+": Train path profile", tp.Path, opp)
	// Frozen path profiles have a canonical layout, so equal profiles
	// are reflect.DeepEqual.
	if !reflect.DeepEqual(tp.Path, pp.Profile()) {
		t.Fatalf("%s: Train path profile differs from the directly driven profiler's", name)
	}
	if !reflect.DeepEqual(tp.Calls, ocg.Counts()) {
		t.Fatalf("%s: Train calls = %v, oracle = %v", name, tp.Calls, ocg.Counts())
	}
}

func TestFastTrainMatchesLegacyHandCases(t *testing.T) {
	for _, tc := range []struct {
		name string
		prog *ir.Program
		cfg  PathConfig
	}{
		{"loopCall", loopCallProg(40), PathConfig{}},
		{"loopCallShallow", loopCallProg(40), PathConfig{Depth: 2}},
		{"loopCallShortWindows", loopCallProg(25), PathConfig{MaxBlocks: 3}},
		{"recurse", recurseProg(12), PathConfig{}},
	} {
		diffTrain(t, tc.name, tc.prog, tc.cfg)
	}
}

func TestFastTrainMatchesLegacyRandomPrograms(t *testing.T) {
	n := int64(60)
	if testing.Short() {
		n = 15
	}
	for seed := int64(1); seed <= n; seed++ {
		prog := irtest.RandExecProg(seed, int(seed%17)+4)
		diffTrain(t, prog.Name, prog, PathConfig{})
	}
}

func TestPointProfilesMatchesLegacy(t *testing.T) {
	progs := []*ir.Program{loopCallProg(40), recurseProg(12)}
	for seed := int64(1); seed <= 20; seed++ {
		progs = append(progs, irtest.RandExecProg(seed, int(seed%11)+4))
	}
	for _, prog := range progs {
		oep := newEdgeCounter(prog)
		ocg := NewCallGraphProfiler()
		if _, err := interp.Run(prog, interp.Config{Batch: perEvent{oep, ocg}}); err != nil {
			t.Fatalf("%s: oracle run: %v", prog.Name, err)
		}
		ep, calls, err := PointProfiles(prog)
		if err != nil {
			t.Fatalf("%s: PointProfiles: %v", prog.Name, err)
		}
		if got, want := ep.WriteText(), oep.Profile().WriteText(); got != want {
			t.Fatalf("%s: fused point profile differs from the per-event oracle\nfused:\n%s\noracle:\n%s",
				prog.Name, got, want)
		}
		if !reflect.DeepEqual(calls, ocg.Counts()) {
			t.Fatalf("%s: fused calls = %v, oracle = %v", prog.Name, calls, ocg.Counts())
		}
	}
}

// TestTrainWideRegisterNumbers pins the profiles of a program whose
// registers are numbered past 255: Train runs it on the one engine
// with batched, counter-fused profiling, and its profiles equal both
// the per-event oracles' and those of its narrow twin.
func TestTrainWideRegisterNumbers(t *testing.T) {
	prog := wideProg(300)
	diffTrain(t, "wide", prog, PathConfig{})
	tp, err := Train(prog, PathConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ntp, err := Train(wideProg(2), PathConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if tp.Edge.WriteText() != ntp.Edge.WriteText() || !reflect.DeepEqual(tp.Path, ntp.Path) ||
		!reflect.DeepEqual(tp.Calls, ntp.Calls) {
		t.Fatal("Train profiles of the wide and narrow twins differ")
	}
}

// TestTooManyRegistersRejected pins that every profiling entry point
// surfaces the engine's decode error for a procedure naming more than
// 256 registers, with its name and count, rather than panicking or
// profiling on a second engine.
func TestTooManyRegistersRejected(t *testing.T) {
	prog := manyRegsProg()
	// In order: RunCounted, Run, Train, TrainBL, PointProfiles.
	_, _, ecErr := interp.EngineFor(prog).RunCounted(interp.Config{})
	_, runErr := interp.Run(prog, interp.Config{Batch: NewPathProfiler(prog, PathConfig{})})
	_, trainErr := Train(prog, PathConfig{})
	_, blErr := TrainBL(prog, BLConfig{})
	_, _, pointErr := PointProfiles(prog)
	for i, err := range []error{ecErr, runErr, trainErr, blErr, pointErr} {
		if !errors.Is(err, interp.ErrTooManyRegisters) || !strings.Contains(err.Error(), "main names 300") {
			t.Errorf("entry point %d: err = %v, want %v naming main and 300", i, err, interp.ErrTooManyRegisters)
		}
	}
}
