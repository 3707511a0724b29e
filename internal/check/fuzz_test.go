package check_test

import (
	"testing"

	"pathsched/internal/check"
	"pathsched/internal/core"
	"pathsched/internal/ir"
	"pathsched/internal/ir/irtest"
	"pathsched/internal/machine"
	"pathsched/internal/profile"
	"pathsched/internal/sched"
)

// FuzzCheck is the checker's soundness fuzzer: random executable
// programs go through the full pipeline (profile, form, compact), and
// every program that survives must also pass all four analyses — the
// checker may never reject legitimate pipeline output, and it may
// never panic on any input the pipeline accepts.
func FuzzCheck(f *testing.F) {
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
		if err := check.Err("profile", check.EdgeFlow(prog, eprof)); err != nil {
			t.Fatalf("edge profile of a real run rejected: %v", err)
		}
		if err := check.Err("profile", check.PathFlow(prog, pprof, eprof)); err != nil {
			t.Fatalf("path profile of a real run rejected: %v", err)
		}

		for _, method := range []core.Method{core.EdgeBased, core.PathBased} {
			cfg := core.DefaultConfig()
			cfg.Method = method
			cfg.Edge, cfg.Path = eprof, pprof
			res, err := core.Form(ir.CloneProgram(pristine), cfg)
			if err != nil {
				continue // formation may refuse odd shapes; not the checker's bug
			}
			if err := check.Err("form", check.Superblocks(res)); err != nil {
				t.Fatalf("%v formation rejected: %v", method, err)
			}
			if err := sched.Compact(res, sched.Options{}); err != nil {
				continue
			}
			if err := ir.Verify(res.Prog); err != nil {
				t.Fatalf("%v compaction produced unverifiable IR: %v", method, err)
			}
			if err := check.Err("compact", check.Schedules(res.Prog, machine.Default())); err != nil {
				t.Fatalf("%v schedule rejected: %v", method, err)
			}
			if err := check.Err("compact", check.DefBeforeUse(res.Prog, check.BaselineOf(pristine))); err != nil {
				t.Fatalf("%v def-before-use rejected: %v", method, err)
			}
		}
	})
}
