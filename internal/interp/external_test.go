package interp_test

import (
	"reflect"
	"testing"

	"pathsched"
	"pathsched/internal/bench"
	"pathsched/internal/interp"
	"pathsched/internal/ir"
	"pathsched/internal/profile"
)

// Tests and benchmarks that drive the interpreter through packages
// which import it (the root pathsched API, internal/profile) live in
// this external test package; export_test.go lends them the oracle.

// BenchmarkInterpDispatch races the decoded engine behind interp.Run
// against the seed engine kept as its test oracle (reference, a
// per-instruction switch over ir.Instr) on the no-observer fast path
// of a measurement run, on both an unscheduled build and a scheduled
// P4 binary of the same benchmark. The decoded engine is built once,
// outside the timed loop, so the benchmark times dispatch alone. The
// decoded/reference Minstr/s ratio is the speedup the decode buys;
// cmd/bench reports decoded throughput end to end as
// interp.minstr_per_s.
func BenchmarkInterpDispatch(b *testing.B) {
	bm := bench.ByName("wc")
	unsched := bm.Build(bm.Train)
	profs, err := pathsched.ProfileProgram(bm.Build(bm.Train))
	if err != nil {
		b.Fatal(err)
	}
	scheduled, err := pathsched.Compile(bm.Build(bm.Train), profs, pathsched.SchemeP4)
	if err != nil {
		b.Fatal(err)
	}
	type runFunc func(interp.Config) (*interp.Result, error)
	engines := []struct {
		name string
		prep func(*ir.Program) runFunc
	}{
		{"reference", func(p *ir.Program) runFunc {
			return func(cfg interp.Config) (*interp.Result, error) { return interp.ReferenceRun(p, cfg) }
		}},
		{"decoded", func(p *ir.Program) runFunc { return interp.EngineFor(p).Run }},
	}
	progs := []struct {
		name string
		prog *ir.Program
	}{
		{"unscheduled", unsched},
		{"scheduled", scheduled},
	}
	for _, p := range progs {
		for _, e := range engines {
			b.Run(p.name+"/"+e.name, func(b *testing.B) {
				run := e.prep(p.prog)
				b.ResetTimer()
				var instrs int64
				for i := 0; i < b.N; i++ {
					res, err := run(interp.Config{})
					if err != nil {
						b.Fatal(err)
					}
					instrs = res.DynInstrs
				}
				b.ReportMetric(float64(instrs)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
			})
		}
	}
}

// TestSuiteMatchesOracle runs every benchmark's pristine testing build
// and its five compiles under both engines, comparing each run's
// Result, batch stream, fetch ranges and counted profile (DiffRun).
// These are the programs the experiments execute, so they reach the
// superinstructions and decoded opcodes the random generator's
// programs never form. The compiles come from pathsched.Compile over
// the training run's profiles, exactly as the experiments build them;
// only the testing input shrinks (Scale/50), which keeps the static
// code and shortens the runs.
func TestSuiteMatchesOracle(t *testing.T) {
	for _, bm := range bench.All() {
		profs, err := pathsched.ProfileProgram(bm.Build(bm.Train))
		if err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		in := bm.Test
		in.Scale = max(1, in.Scale/50)
		test := bm.Build(in)
		interp.DiffRun(t, bm.Name+"/pristine", test)
		for _, s := range pathsched.Schemes() {
			bin, err := pathsched.Compile(test, profs, s)
			if err != nil {
				t.Fatalf("%s/%s: %v", bm.Name, s, err)
			}
			interp.DiffRun(t, bm.Name+"/"+string(s), bin)
		}
	}
}

// edgeTally counts a batch stream per procedure — activations, block
// entries and edge traversals — which is the edge profile a per-event
// counter gathers from the same run.
type edgeTally struct {
	entries map[ir.ProcID]int64
	blocks  map[[2]int64]int64 // (proc, block)
	edges   map[[3]int64]int64 // (proc, from, to)
}

func newEdgeTally() *edgeTally {
	return &edgeTally{entries: map[ir.ProcID]int64{}, blocks: map[[2]int64]int64{}, edges: map[[3]int64]int64{}}
}

func (et *edgeTally) BeginProc(p ir.ProcID, entry ir.BlockID) {
	et.entries[p]++
	et.blocks[[2]int64{int64(p), int64(entry)}]++
}

func (et *edgeTally) EdgeBatch(p ir.ProcID, recs []interp.EdgeRec) {
	for _, r := range recs {
		et.blocks[[2]int64{int64(p), int64(r.To)}]++
		et.edges[[3]int64{int64(p), int64(r.From), int64(r.To)}]++
	}
}

func (et *edgeTally) EndProc(p ir.ProcID) {}

// TestTrainWideTwinMatchesOracle carries dense frame slots through to
// the profiles: profile.Train on the r297–r300 twin must equal what
// the oracle engine's batch stream gives a path profiler and an edge
// tally, and Train on its narrow twin — edge and path profiles exactly,
// call counts equal.
func TestTrainWideTwinMatchesOracle(t *testing.T) {
	wide, narrow := interp.WideTwin(297), interp.WideTwin(1)
	tp, err := profile.Train(wide, profile.PathConfig{})
	if err != nil {
		t.Fatal(err)
	}
	pp := profile.NewPathProfiler(wide, profile.PathConfig{})
	tally := newEdgeTally()
	for _, obs := range []interp.BatchObserver{pp, tally} {
		if _, err := interp.ReferenceRun(wide, interp.Config{Batch: obs}); err != nil {
			t.Fatal(err)
		}
	}
	blocks, edges := 0, 0
	for _, p := range wide.Procs {
		if got, want := tp.Edge.Entries(p.ID), tally.entries[p.ID]; got != want {
			t.Fatalf("%s: Train counts %d entries, the oracle %d", p.Name, got, want)
		}
		for _, b := range p.Blocks {
			got, want := tp.Edge.BlockFreq(p.ID, b.ID), tally.blocks[[2]int64{int64(p.ID), int64(b.ID)}]
			if got != want {
				t.Fatalf("%s b%d: Train counts %d entries, the oracle %d", p.Name, b.ID, got, want)
			}
			if got != 0 {
				blocks++
			}
			tp.Edge.ForEachSucc(p.ID, b.ID, func(to ir.BlockID, n int64) {
				edges++
				if want := tally.edges[[3]int64{int64(p.ID), int64(b.ID), int64(to)}]; n != want {
					t.Fatalf("%s b%d->b%d: Train counts %d, the oracle %d", p.Name, b.ID, to, n, want)
				}
			})
		}
	}
	if blocks != len(tally.blocks) || edges != len(tally.edges) {
		t.Fatalf("Train records %d blocks and %d edges, the oracle %d and %d",
			blocks, edges, len(tally.blocks), len(tally.edges))
	}
	// Frozen path profiles have a canonical layout, so equal profiles
	// are reflect.DeepEqual.
	if !reflect.DeepEqual(tp.Path, pp.Profile()) {
		t.Fatalf("Train path profile differs from the oracle's")
	}
	ntp, err := profile.Train(narrow, profile.PathConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if tp.Edge.WriteText() != ntp.Edge.WriteText() || !reflect.DeepEqual(tp.Path, ntp.Path) {
		t.Fatal("Train profiles of the wide and narrow twins differ")
	}
	if len(tp.Calls) != 0 || len(ntp.Calls) != 0 {
		t.Fatalf("call-free twins report calls: wide %v, narrow %v", tp.Calls, ntp.Calls)
	}
}
