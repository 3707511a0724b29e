package pathsched

import (
	"strings"
	"testing"

	"pathsched/internal/bench"
	"pathsched/internal/machine"
	"pathsched/internal/pipeline"
)

// demoProgram builds a small hot loop with a biased branch through the
// public API.
func demoProgram() *Program {
	bd := NewBuilder("demo", 64)
	pb := bd.Proc("main")
	entry, head, hot, cold, latch, exit :=
		pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock()
	const i, s, c, t = 1, 2, 3, 4
	entry.Add(MovI(i, 0), MovI(s, 0))
	entry.Jmp(head.ID())
	head.Add(CmpLTI(c, i, 3000))
	head.Br(c, hot.ID(), exit.ID())
	hot.Add(AndI(t, i, 7), CmpEQI(c, t, 7))
	hot.Br(c, cold.ID(), latch.ID())
	cold.Add(AddI(s, s, 100))
	cold.Jmp(latch.ID())
	latch.Add(AddI(s, s, 1), AddI(i, i, 1))
	latch.Jmp(head.ID())
	exit.Add(Emit(s))
	exit.Ret(s)
	return bd.Finish()
}

func TestPublicAPICompileAndRun(t *testing.T) {
	prog := demoProgram()
	orig, err := Execute(prog)
	if err != nil {
		t.Fatal(err)
	}
	profs, err := ProfileProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	var bbCycles int64
	for _, scheme := range Schemes() {
		bin, err := Compile(prog, profs, scheme)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		res, err := Execute(bin)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if res.Ret != orig.Ret || len(res.Output) != len(orig.Output) {
			t.Fatalf("%s: behaviour diverged", scheme)
		}
		if scheme == SchemeBB {
			bbCycles = res.Cycles
		} else if res.Cycles >= bbCycles {
			t.Errorf("%s: %d cycles, not better than BB's %d", scheme, res.Cycles, bbCycles)
		}
		// Compiled code must carry schedule annotations.
		annotated := false
		for _, p := range bin.Procs {
			for _, b := range p.Blocks {
				if b.Cycles != nil {
					annotated = true
				}
			}
		}
		if !annotated {
			t.Fatalf("%s: no schedule annotations", scheme)
		}
	}
}

func TestPublicAPICacheExecution(t *testing.T) {
	prog := demoProgram()
	profs, err := ProfileProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := Compile(prog, profs, SchemeP4)
	if err != nil {
		t.Fatal(err)
	}
	res, missRate, err := ExecuteWithCache(bin)
	if err != nil {
		t.Fatal(err)
	}
	if res.FetchStall < 0 || missRate < 0 || missRate > 1 {
		t.Fatalf("implausible cache results: stall=%d rate=%v", res.FetchStall, missRate)
	}
}

// TestCompileMatchesExperiments pins the public API to the
// experiments: compiling a benchmark's testing build against
// ProfileProgram of its training build and running it against the
// I-cache must reproduce RunBenchmark's measurement of every scheme.
// The benchmarks are those where laying out by the wrong blocks'
// frequencies once moved cycle or miss counts.
func TestCompileMatchesExperiments(t *testing.T) {
	icache := machine.DefaultICache()
	runner := pipeline.NewRunner(pipeline.Options{Cache: &icache})
	for _, name := range []string{"wc", "li", "gcc", "m88k"} {
		b := bench.ByName(name)
		res, err := runner.RunBenchmark(b, Schemes())
		if err != nil {
			t.Fatal(err)
		}
		profs, err := ProfileProgram(b.Build(b.Train))
		if err != nil {
			t.Fatal(err)
		}
		test := b.Build(b.Test)
		for _, s := range Schemes() {
			bin, err := Compile(test, profs, s)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, s, err)
			}
			got, rate, err := ExecuteWithCache(bin)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, s, err)
			}
			// Every miss stalls fetch for the full penalty.
			misses := got.FetchStall / icache.Penalty
			want := res.ByScheme[s]
			if got.Cycles != want.Cycles || got.FetchStall != want.FetchStall || misses != want.CacheMisses || rate != want.MissRate {
				t.Errorf("%s/%s: Compile+ExecuteWithCache gives %d cycles, %d stall, %d misses; RunBenchmark %d, %d, %d",
					name, s, got.Cycles, got.FetchStall, misses, want.Cycles, want.FetchStall, want.CacheMisses)
			}
		}
	}
}

func TestPublicAPIUnknownScheme(t *testing.T) {
	prog := demoProgram()
	profs, _ := ProfileProgram(prog)
	if _, err := Compile(prog, profs, Scheme("nope")); err == nil {
		t.Fatal("unknown scheme must error")
	}
}

func TestCompileDoesNotMutateInput(t *testing.T) {
	prog := demoProgram()
	before := prog.Dump()
	profs, _ := ProfileProgram(prog)
	if _, err := Compile(prog, profs, SchemeP4); err != nil {
		t.Fatal(err)
	}
	if prog.Dump() != before {
		t.Fatal("Compile mutated its input")
	}
}

func TestExperimentsAPI(t *testing.T) {
	res, err := Experiments(ExperimentOptions{
		Benchmarks: []string{"alt", "corr"},
		Schemes:    []Scheme{SchemeBB, SchemeM4, SchemeP4},
	})
	if err != nil {
		t.Fatal(err)
	}
	table := res.Table1()
	if !strings.Contains(table, "alt") || !strings.Contains(table, "corr") {
		t.Fatalf("Table 1 missing benchmarks:\n%s", table)
	}
	fig4 := res.Figure4()
	if !strings.Contains(fig4, "P4") {
		t.Fatalf("Figure 4 malformed:\n%s", fig4)
	}
	for _, render := range []string{res.Figure5(), res.Figure6(), res.Figure7(), res.MissRates(), res.Summary()} {
		if render == "" {
			t.Fatal("empty rendering")
		}
	}
	if got := len(Benchmarks()); got != 14 {
		t.Fatalf("suite has %d benchmarks, want 14", got)
	}
}
