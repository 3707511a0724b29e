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
// P4 binary of the same benchmark. The decoded/reference Minstr/s
// ratio is the speedup the decode buys; cmd/bench reports decoded
// throughput end to end as interp.minstr_per_s.
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
	engines := []struct {
		name string
		run  func(*ir.Program, interp.Config) (*interp.Result, error)
	}{
		{"reference", interp.ReferenceRun},
		{"decoded", interp.Run},
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
				var instrs int64
				for i := 0; i < b.N; i++ {
					res, err := e.run(p.prog, interp.Config{})
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

// TestTrainWideTwinMatchesOracle carries dense frame slots through to
// the profiles: profile.Train on the r297–r300 twin must equal the
// per-event profilers fed by the oracle engine and Train on its narrow
// twin — edge and path profiles byte for byte, call counts equal.
func TestTrainWideTwinMatchesOracle(t *testing.T) {
	wide, narrow := interp.WideTwin(297), interp.WideTwin(1)
	tp, err := profile.Train(wide, profile.PathConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ep := profile.NewEdgeProfiler(wide)
	pp := profile.NewPathProfiler(wide, profile.PathConfig{})
	if _, err := interp.ReferenceRun(wide, interp.Config{Observer: profile.Multi{ep, pp}}); err != nil {
		t.Fatal(err)
	}
	if got, want := tp.Edge.WriteText(), ep.Profile().WriteText(); got != want {
		t.Fatalf("Train edge profile differs from the oracle's\ntrain:\n%s\noracle:\n%s", got, want)
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
