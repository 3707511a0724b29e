package validate_test

import (
	"testing"

	"pathsched/internal/check"
	"pathsched/internal/core"
	"pathsched/internal/ir"
	"pathsched/internal/ir/irtest"
	"pathsched/internal/profile"
	"pathsched/internal/sched"
	"pathsched/internal/validate"
)

// FuzzEquiv is the validator's soundness fuzzer: random executable
// programs go through the full pipeline under all three schemes, and
// every compile the pipeline accepts must validate — the translation
// validator may never reject legitimate pipeline output, never report
// Bounded under default budgets on these small programs, and never
// panic. (Its ability to reject miscompiles is pinned separately by
// the mutation teeth tests in internal/check.)
func FuzzEquiv(f *testing.F) {
	f.Add(int64(1), uint8(8))
	f.Add(int64(2), uint8(12))
	f.Add(int64(42), uint8(6))
	f.Add(int64(-7), uint8(20))
	f.Add(int64(1234567), uint8(31))
	f.Fuzz(func(t *testing.T, seed int64, sz uint8) {
		prog := irtest.RandExecProg(seed, int(sz%28)+4)
		pristine := ir.CloneProgram(prog)

		tp, err := profile.Train(prog, profile.PathConfig{})
		if err != nil {
			t.Skipf("training run rejected: %v", err)
		}
		eprof, pprof := tp.Edge, tp.Path

		validated := func(scheme string, bin *ir.Program) {
			rep, vs := check.Equiv(pristine, bin, validate.Options{})
			if err := check.Err("validate", vs); err != nil {
				t.Fatalf("%s compile of a legitimate program rejected: %v", scheme, err)
			}
			if rep.Stats.Bounded != 0 {
				t.Fatalf("%s compile hit a budget on a small program: %v", scheme, rep.Stats)
			}
			if rep.Stats.Proved != rep.Stats.Procs {
				t.Fatalf("%s compile not fully proved: %v", scheme, rep.Stats)
			}
		}

		bb := ir.CloneProgram(pristine)
		if err := sched.CompactBasicBlocks(bb, sched.Options{}); err == nil {
			validated("bb", bb)
		}

		for _, method := range []core.Method{core.EdgeBased, core.PathBased} {
			cfg := core.DefaultConfig()
			cfg.Method = method
			cfg.Edge, cfg.Path = eprof, pprof
			res, err := core.Form(ir.CloneProgram(pristine), cfg)
			if err != nil {
				continue // formation may refuse odd shapes; not the validator's bug
			}
			if err := sched.Compact(res, sched.Options{}); err != nil {
				continue
			}
			validated(method.String(), res.Prog)
		}
	})
}
