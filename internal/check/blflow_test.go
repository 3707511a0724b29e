package check_test

import (
	"testing"

	"pathsched/internal/check"
	"pathsched/internal/interp"
	"pathsched/internal/profile"
)

// A Ball–Larus training run over a real looping program must pass its
// own flow checker and the generic path-flow checker at every
// extension depth, so pipeline -check can gate on both.
func TestBLFlowCleanRun(t *testing.T) {
	for _, k := range []int{2, 0, 7} {
		prog := mutProg()
		tp, err := profile.TrainBL(prog, profile.BLConfig{Iterations: k})
		if err != nil {
			t.Fatalf("k=%d: TrainBL: %v", k, err)
		}
		if vs := check.BLFlow(prog, tp.BL, tp.Edge); len(vs) != 0 {
			t.Errorf("k=%d: %v", k, check.Err("blflow", vs))
		}
		if vs := check.PathFlow(prog, tp.Path, tp.Edge); len(vs) != 0 {
			t.Errorf("k=%d: %v", k, check.Err("pathflow", vs))
		}
		if vs := check.EdgeFlow(prog, tp.Edge); len(vs) != 0 {
			t.Errorf("k=%d: %v", k, check.Err("edgeflow", vs))
		}
	}
}

// The checker has teeth: a Ball–Larus profiler whose event stream
// diverges from the run the edge profile describes (here a truncated
// stream that bails after the first edge, leaving a phantom completed
// path) must trip block-frequency and completions violations.
func TestBLFlowDetectsCorruptStream(t *testing.T) {
	prog := mutProg()
	ep, _, err := profile.PointProfiles(prog)
	if err != nil {
		t.Fatal(err)
	}
	bl := profile.NewBLProfiler(prog, profile.BLConfig{})
	entry := prog.Proc(0).Entry()
	bl.BeginProc(0, entry.ID)
	bl.EdgeBatch(0, []interp.EdgeRec{{From: entry.ID, To: entry.Succs()[0]}})
	bl.EndProc(0)
	vs := check.BLFlow(prog, bl, ep)
	if len(vs) == 0 {
		t.Fatal("BLFlow accepted a profiler that saw a different run than the edge profile")
	}
	requireViolation(t, vs, "completions")
	requireViolation(t, vs, "block")
}
