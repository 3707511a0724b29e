package check_test

import (
	"testing"

	"pathsched/internal/check"
	"pathsched/internal/ir"
	"pathsched/internal/machine"
	"pathsched/internal/sched"
)

// Teeth for exact mode: the branch-and-bound scheduler claims its
// schedules obey exactly the rules check.Schedules enforces. Each test
// compiles with exact scheduling, confirms the checker accepts the
// clean result, corrupts one schedule the way a search bug would, and
// asserts check.SchedulesWithDeps still bites.

// exactCompiled forms, compacts under exact scheduling with dependence
// recording, and confirms both checker paths accept the clean result.
func exactCompiled(t *testing.T) (*ir.Program, sched.BlockDeps) {
	t.Helper()
	res := form(t)
	rec := sched.BlockDeps{}
	opts := sched.Options{Exact: sched.ExactConfig{Enabled: true}, RecordDeps: rec}
	if err := sched.Compact(res, opts); err != nil {
		t.Fatalf("Compact(exact): %v", err)
	}
	mc := machine.Default()
	if vs := check.Schedules(res.Prog, mc); len(vs) != 0 {
		t.Fatalf("checker rejects clean exact compile: %v", vs[0])
	}
	if vs := check.SchedulesWithDeps(res.Prog, mc, rec); len(vs) != 0 {
		t.Fatalf("recorded checker rejects clean exact compile: %v", vs[0])
	}
	return res.Prog, rec
}

// Corruption 1: shrink a latency-carrying RAW dependence to zero
// cycles in an exact schedule.
func TestExactTeethRAWViolation(t *testing.T) {
	prog, rec := exactCompiled(t)
	mc := machine.Default()
	p := prog.Proc(0)
	live := sched.LiveIn(p)
	for _, b := range p.Blocks {
		if b.Cycles == nil {
			continue
		}
		items := make([]sched.DepItem, len(b.Instrs))
		for i := range b.Instrs {
			items[i] = sched.DepItem{Ins: b.Instrs[i], IsExit: b.ExitUnits[i] != 0}
			if items[i].IsExit {
				for _, tg := range b.Instrs[i].Targets {
					if tg != ir.NoBlock {
						items[i].LiveOut.Union(live[tg])
					}
				}
			}
		}
		for _, e := range sched.Dependences(items, mc) {
			if e.Kind != sched.DepRAW || e.Lat < 1 || e.To == len(b.Instrs)-1 {
				continue
			}
			b.Cycles[e.To] = b.Cycles[e.From] // needs From+Lat
			vs := check.SchedulesWithDeps(prog, mc, rec)
			v := requireViolation(t, vs, "RAW dependence violated")
			if v.Block != b.ID || v.Instr != e.To {
				t.Fatalf("violation at b%d instr %d, mutated b%d instr %d", v.Block, v.Instr, b.ID, e.To)
			}
			return
		}
	}
	t.Fatal("no RAW edge found to mutate in any exact-scheduled block")
}

// Corruption 2: collapse an exact schedule into one cycle — overflowing
// the machine's issue width (and its branch slot).
func TestExactTeethWidthOverflow(t *testing.T) {
	prog, rec := exactCompiled(t)
	mc := machine.Default()
	p := prog.Proc(0)
	for _, b := range p.Blocks {
		if b.Cycles == nil || len(b.Instrs) <= mc.FuncUnits {
			continue
		}
		for i := range b.Cycles {
			b.Cycles[i] = 0
		}
		b.Span = 1
		vs := check.SchedulesWithDeps(prog, mc, rec)
		v := requireViolation(t, vs, "functional units")
		if v.Block != b.ID {
			t.Fatalf("violation at b%d, mutated b%d", v.Block, b.ID)
		}
		requireViolation(t, vs, "control operations")
		return
	}
	t.Fatalf("no exact-scheduled block wider than %d instructions", mc.FuncUnits)
}

// Corruption 3: branch-slot misuse — drag a later exit branch into an
// earlier branch's cycle, issuing two control operations where the
// machine has one slot.
func TestExactTeethBranchSlotMisuse(t *testing.T) {
	prog, rec := exactCompiled(t)
	mc := machine.Default()
	p := prog.Proc(0)
	for _, b := range p.Blocks {
		if b.Cycles == nil {
			continue
		}
		first := -1
		for i := range b.Instrs {
			if !b.Instrs[i].Op.IsBranch() {
				continue
			}
			if first < 0 {
				first = i
				continue
			}
			if b.Cycles[i] == b.Cycles[first] {
				t.Fatalf("clean exact schedule already issues two branches in cycle %d", b.Cycles[i])
			}
			b.Cycles[i] = b.Cycles[first]
			vs := check.SchedulesWithDeps(prog, mc, rec)
			v := requireViolation(t, vs, "control operations")
			if v.Block != b.ID {
				t.Fatalf("violation at b%d, mutated b%d", v.Block, b.ID)
			}
			return
		}
	}
	t.Fatal("no exact-scheduled block with two branches")
}
