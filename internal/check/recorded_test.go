package check_test

import (
	"testing"

	"pathsched/internal/check"
	"pathsched/internal/machine"
	"pathsched/internal/sched"
)

// A clean compile must pass the schedule checker identically whether
// the dependences are recomputed from the emitted order or taken from
// the scheduler's recording — and the recording must actually cover
// scheduled blocks (otherwise the fast path silently degrades).
func TestSchedulesRecordedMatchesRecomputed(t *testing.T) {
	res := form(t)
	rec := sched.BlockDeps{}
	if err := sched.Compact(res, sched.Options{RecordDeps: rec}); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	mc := machine.Default()
	if vs := check.Schedules(res.Prog, mc); len(vs) != 0 {
		t.Fatalf("recomputed check rejects clean compile: %v", vs[0])
	}
	if vs := check.SchedulesWithDeps(res.Prog, mc, rec); len(vs) != 0 {
		t.Fatalf("recorded check rejects clean compile: %v", vs[0])
	}
	covered := 0
	for _, p := range res.Prog.Procs {
		for _, b := range p.Blocks {
			if b.Cycles == nil {
				continue
			}
			if _, ok := rec[b]; ok {
				covered++
			}
		}
	}
	if covered == 0 {
		t.Fatal("recording covers no scheduled block — fast path never taken")
	}
}

// Both the recorded and the recomputed paths must catch a corrupted
// cycle assignment: teeth for the fast path, so recording can never
// become a skipped check.
func TestSchedulesRecordedCatchesCorruption(t *testing.T) {
	res := form(t)
	rec := sched.BlockDeps{}
	if err := sched.Compact(res, sched.Options{RecordDeps: rec}); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	mc := machine.Default()
	// Find a scheduled block whose last instruction issues after its
	// first, and drag it to cycle 0 — violating the control/flow
	// dependences into the terminator.
	corrupted := false
	for _, p := range res.Prog.Procs {
		for _, b := range p.Blocks {
			n := len(b.Instrs)
			if b.Cycles == nil || n < 2 || b.Cycles[n-1] <= b.Cycles[0] {
				continue
			}
			b.Cycles[n-1] = 0
			corrupted = true
			break
		}
		if corrupted {
			break
		}
	}
	if !corrupted {
		t.Fatal("no multi-cycle scheduled block to corrupt")
	}
	if vs := check.Schedules(res.Prog, mc); len(vs) == 0 {
		t.Fatal("recomputed check missed the corrupted cycle")
	}
	if vs := check.SchedulesWithDeps(res.Prog, mc, rec); len(vs) == 0 {
		t.Fatal("recorded check missed the corrupted cycle")
	}
}

// A recorded edge pointing outside the block must be reported as a
// violation, not dereferenced.
func TestSchedulesRecordedBoundsChecked(t *testing.T) {
	prog := compiled(t)
	mc := machine.Default()
	rec := sched.BlockDeps{}
	for _, p := range prog.Procs {
		for _, b := range p.Blocks {
			if b.Cycles != nil {
				rec[b] = []sched.DepEdge{{From: 0, To: len(b.Instrs) + 5, Lat: 1, Kind: sched.DepRAW}}
			}
		}
	}
	vs := check.SchedulesWithDeps(prog, mc, rec)
	requireViolation(t, vs, "outside the block")
}
