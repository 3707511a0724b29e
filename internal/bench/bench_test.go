package bench

import (
	"testing"

	"pathsched/internal/interp"
	"pathsched/internal/ir"
	"pathsched/internal/profile"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"alt", "ph", "corr", "wc", "com", "eqn", "esp",
		"gcc", "go", "ijpeg", "li", "m88k", "perl", "vortex"}
	names := Names()
	if len(names) != len(want) {
		t.Fatalf("suite has %d benchmarks %v, want %d", len(names), names, len(want))
	}
	for _, w := range want {
		if ByName(w) == nil {
			t.Errorf("missing benchmark %q", w)
		}
	}
	if ByName("nope") != nil {
		t.Error("ByName must return nil for unknown names")
	}
}

func TestAllBenchmarksBuildAndRun(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			for _, in := range []Input{b.Train, b.Test} {
				prog := mustBuild(b, in)
				if err := ir.Verify(prog); err != nil {
					t.Fatalf("%s/%s: %v", b.Name, in.Label, err)
				}
				res, err := interp.Run(prog, interp.Config{})
				if err != nil {
					t.Fatalf("%s/%s: %v", b.Name, in.Label, err)
				}
				if res.DynBranches < 1000 {
					t.Errorf("%s/%s: only %d dynamic branches; too small to schedule",
						b.Name, in.Label, res.DynBranches)
				}
				if len(res.Output) == 0 {
					t.Errorf("%s/%s: no observable output", b.Name, in.Label)
				}
			}
		})
	}
}

func TestBenchmarksDeterministic(t *testing.T) {
	for _, b := range All() {
		r1, err := interp.Run(b.Build(b.Test), interp.Config{})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		r2, err := interp.Run(b.Build(b.Test), interp.Config{})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if r1.Ret != r2.Ret || len(r1.Output) != len(r2.Output) {
			t.Fatalf("%s: nondeterministic results", b.Name)
		}
		for i := range r1.Output {
			if r1.Output[i] != r2.Output[i] {
				t.Fatalf("%s: nondeterministic output[%d]", b.Name, i)
			}
		}
	}
}

func TestTrainAndTestInputsDiffer(t *testing.T) {
	// Benchmarks with real inputs must behave differently on train vs
	// test (otherwise the train/test methodology is vacuous); the
	// microbenchmarks are identical by design, like the paper's "null"
	// inputs.
	for _, b := range All() {
		if b.Category == "micro" && b.Name != "wc" {
			continue
		}
		tr, err := interp.Run(b.Build(b.Train), interp.Config{})
		if err != nil {
			t.Fatalf("%s train: %v", b.Name, err)
		}
		te, err := interp.Run(b.Build(b.Test), interp.Config{})
		if err != nil {
			t.Fatalf("%s test: %v", b.Name, err)
		}
		if tr.DynInstrs == te.DynInstrs {
			t.Errorf("%s: train and test runs identical (%d instrs)", b.Name, tr.DynInstrs)
		}
	}
}

func TestSuiteScaleReport(t *testing.T) {
	if testing.Short() {
		t.Skip("report only")
	}
	for _, b := range All() {
		prog := b.Build(b.Test)
		res, err := interp.Run(prog, interp.Config{})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		t.Logf("%-7s size=%6.1fKB branches=%8d instrs=%9d blocks=%8d calls=%7d",
			b.Name, float64(prog.CodeBytes())/1024, res.DynBranches,
			res.DynInstrs, res.DynBlocks, res.Calls)
	}
}

func TestAltPatternIsTTTF(t *testing.T) {
	// Verify the conditional inside alt's loop really alternates TTTF:
	// the rare arm executes exactly Scale/4 times.
	prog := ByName("alt").Build(Input{Scale: 400})
	res, err := interp.Run(prog, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret == 0 {
		t.Fatal("alt produced zero checksum")
	}
	// 400 iterations, 2 branches each (loop + cond), plus loop exit.
	if res.DynBranches != 801 {
		t.Fatalf("alt dynamic branches = %d, want 801", res.DynBranches)
	}
}

func TestWcCountsAreConsistent(t *testing.T) {
	prog := ByName("wc").Build(Input{Seed: 7, Scale: 5000})
	res, err := interp.Run(prog, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 3 {
		t.Fatalf("wc output = %v", res.Output)
	}
	lines, words, chars := res.Output[0], res.Output[1], res.Output[2]
	if chars != 5000 {
		t.Fatalf("chars = %d, want 5000", chars)
	}
	if words <= lines || words == 0 || lines == 0 {
		t.Fatalf("implausible counts: lines=%d words=%d", lines, words)
	}
}

// profileForTest runs prog once and returns its edge profile.
func profileForTest(t *testing.T, prog *ir.Program) *profile.EdgeProfile {
	t.Helper()
	tp, err := profile.Train(prog, profile.PathConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return tp.Edge
}

func TestColdMassIsLukewarm(t *testing.T) {
	// The utility procedures exist to create I-cache pressure; they
	// must execute (so layout keeps them live) but stay well below the
	// hot kernel's frequency.
	b := ByName("m88k")
	prog := b.Build(b.Test)
	ep := profileForTest(t, prog)
	var mainEntries, utilCalls int64
	for _, p := range prog.Procs {
		if p.Name == "main" {
			mainEntries = ep.BlockFreq(p.ID, p.Entry().ID)
		}
		if p.Name == "util" {
			utilCalls += ep.Entries(p.ID)
		}
	}
	if utilCalls == 0 {
		t.Fatal("cold mass never executed")
	}
	_ = mainEntries
	// Every util proc individually stays lukewarm.
	for _, p := range prog.Procs {
		if p.Name != "util" {
			continue
		}
		if n := ep.Entries(p.ID); n > 1000 {
			t.Fatalf("util proc %d called %d times; cold mass too hot", p.ID, n)
		}
	}
}

func TestBenchmarkCodeSizesScale(t *testing.T) {
	// Relative binary sizes should mirror the paper's ordering: gcc
	// largest, micro tiny.
	size := func(name string) int64 {
		b := ByName(name)
		return b.Build(b.Test).CodeBytes()
	}
	if !(size("gcc") > size("m88k") && size("m88k") > size("wc") && size("wc") > size("alt")) {
		t.Fatalf("size ordering broken: gcc=%d m88k=%d wc=%d alt=%d",
			size("gcc"), size("m88k"), size("wc"), size("alt"))
	}
}

// TestConcurrentBuildsAreIndependent is the parallel pipeline's
// contract with this package: Build must be callable from many
// goroutines at once (the registry is only read after init) and every
// concurrent build of the same input must produce a structurally
// identical program. Run under -race this also proves builders share no
// hidden mutable state.
func TestConcurrentBuildsAreIndependent(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			const dup = 4
			progs := make([]*ir.Program, dup)
			done := make(chan int, dup)
			for i := 0; i < dup; i++ {
				go func(i int) {
					progs[i] = b.Build(b.Test)
					done <- i
				}(i)
			}
			for i := 0; i < dup; i++ {
				<-done
			}
			for i := 1; i < dup; i++ {
				if progs[i].NumInstrs() != progs[0].NumInstrs() {
					t.Fatalf("build %d has %d instrs, build 0 has %d",
						i, progs[i].NumInstrs(), progs[0].NumInstrs())
				}
				if len(progs[i].Procs) != len(progs[0].Procs) {
					t.Fatalf("build %d has %d procs, build 0 has %d",
						i, len(progs[i].Procs), len(progs[0].Procs))
				}
			}
		})
	}
}
