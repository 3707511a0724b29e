package check_test

import (
	"strings"
	"testing"

	"pathsched/internal/check"
	"pathsched/internal/core"
	"pathsched/internal/ir"
	"pathsched/internal/machine"
	"pathsched/internal/profile"
	"pathsched/internal/sched"
	"pathsched/internal/validate"
)

// Teeth tests for the translation validator: each test compiles a
// clean program, applies one scripted semantic miscompile of the kind
// a buggy pass could produce, proves the mutation is INVISIBLE to
// every pre-existing structural check (Verify, Schedules,
// DefBeforeUse), and then asserts check.Equiv rejects it. Together
// they pin the claim that the validator catches a class of
// miscompiles the structural checker provably cannot.

// teethProg extends the mutation-test loop with a subtraction (operand
// order matters) and two stores to distinct addresses (effect order
// and multiplicity matter), so every mutation below has a target.
func teethProg() *ir.Program {
	bd := ir.NewBuilder("teeth", 64)
	bd.Data(0, 7, 9)
	pb := bd.Proc("main")
	entry, head, b1, b2, rare, latch, exit :=
		pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock()
	const i, s, c, t1, t2, t3, base = 1, 2, 3, 4, 5, 6, 7
	entry.Add(ir.MovI(i, 0), ir.MovI(s, 0), ir.MovI(base, 0))
	entry.Jmp(head.ID())
	head.Add(ir.CmpLTI(c, i, 300))
	head.Br(c, b1.ID(), exit.ID())
	b1.Add(ir.AddI(t1, i, 3), ir.AndI(c, i, 63), ir.CmpEQI(c, c, 63))
	b1.Br(c, rare.ID(), b2.ID())
	b2.Add(
		ir.Load(t2, base, 0), ir.Load(t3, base, 1),
		ir.Add(s, s, t2), ir.Sub(s, s, t3), ir.Add(s, s, t1),
		ir.Store(base, 3, s), ir.Store(base, 4, i),
	)
	b2.Jmp(latch.ID())
	rare.Add(ir.AddI(s, s, 1000))
	rare.Jmp(latch.ID())
	latch.Add(ir.AddI(i, i, 1))
	latch.Jmp(head.ID())
	exit.Add(ir.Emit(s))
	exit.Ret(s)
	return bd.Finish()
}

// teethCompiled path-compiles teethProg, returning the transformed
// program and the pristine original.
func teethCompiled(t *testing.T) (bin, pristine *ir.Program) {
	t.Helper()
	pristine = teethProg()
	tp, err := profile.Train(pristine, profile.PathConfig{})
	if err != nil {
		t.Fatalf("training run: %v", err)
	}
	cfg := core.DefaultConfig()
	cfg.Method = core.PathBased
	cfg.Edge, cfg.Path = tp.Edge, tp.Path
	cfg.MinExecFreq = 2
	res, err := core.Form(ir.CloneProgram(pristine), cfg)
	if err != nil {
		t.Fatalf("Form: %v", err)
	}
	if err := sched.Compact(res, sched.Options{}); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	return res.Prog, pristine
}

// requireStructurallyClean asserts the (possibly mutated) binary still
// passes every pre-existing check — the premise that makes a teeth
// test meaningful.
func requireStructurallyClean(t *testing.T, bin, pristine *ir.Program) {
	t.Helper()
	if err := ir.Verify(bin); err != nil {
		t.Fatalf("mutation visible to ir.Verify — tooth invalid: %v", err)
	}
	if err := check.Err("compact", check.Schedules(bin, machine.Default())); err != nil {
		t.Fatalf("mutation visible to check.Schedules — tooth invalid: %v", err)
	}
	if err := check.Err("compact", check.DefBeforeUse(bin, check.BaselineOf(pristine))); err != nil {
		t.Fatalf("mutation visible to check.DefBeforeUse — tooth invalid: %v", err)
	}
}

// requireEquivCatch asserts the validator rejects the mutation with a
// violation carrying full proc+block identity.
func requireEquivCatch(t *testing.T, bin, pristine *ir.Program, want string) {
	t.Helper()
	rep, vs := check.Equiv(pristine, bin, validate.Options{})
	if rep.Stats.Failed == 0 {
		t.Fatalf("validator missed the miscompile: %v", rep.Stats)
	}
	v := requireViolation(t, vs, want)
	if v.Proc != "main" || v.Block == ir.NoBlock {
		t.Fatalf("violation lacks identity: %+v", v)
	}
	if !strings.Contains(check.Err("validate", vs).Error(), `proc "main"`) {
		t.Fatalf("rendered violation lacks proc identity: %v", check.Err("validate", vs))
	}
}

// findInstr returns the first reachable instruction satisfying pred.
func findInstr(t *testing.T, p *ir.Proc, what string, pred func(*ir.Instr) bool) (*ir.Block, int) {
	t.Helper()
	for _, b := range p.Blocks {
		for i := range b.Instrs {
			if pred(&b.Instrs[i]) {
				return b, i
			}
		}
	}
	t.Fatalf("no %s found in compiled program", what)
	return nil, 0
}

// Tooth 1: a dropped store — the effect silently vanishes, but the
// schedule, dependences, and register discipline remain impeccable.
func TestToothDroppedStore(t *testing.T) {
	bin, pristine := teethCompiled(t)
	_, _ = findInstr(t, bin.Procs[0], "store", func(ins *ir.Instr) bool {
		if ins.Op != ir.OpStore {
			return false
		}
		*ins = ir.Nop()
		return true
	})
	requireStructurallyClean(t, bin, pristine)
	requireEquivCatch(t, bin, pristine, "stores/calls")
}

// Tooth 2: a duplicated store — the second store's operands are
// overwritten with the first's, so one address is written twice and
// another never.
func TestToothDuplicatedStore(t *testing.T) {
	bin, pristine := teethCompiled(t)
	p := bin.Procs[0]
	b, i := findInstr(t, p, "store", func(ins *ir.Instr) bool { return ins.Op == ir.OpStore })
	_, _ = findInstr(t, p, "second store", func(ins *ir.Instr) bool {
		if ins.Op != ir.OpStore || ins == &b.Instrs[i] {
			return false
		}
		ins.Src1, ins.Src2, ins.Imm = b.Instrs[i].Src1, b.Instrs[i].Src2, b.Instrs[i].Imm
		return true
	})
	requireStructurallyClean(t, bin, pristine)
	requireEquivCatch(t, bin, pristine, "different address")
}

// Tooth 3: two stores to different addresses swapped in place — the
// memory stream is reordered. The recomputed dependence graph follows
// emitted order, so the structural checker sees a perfectly consistent
// schedule.
func TestToothReorderedStores(t *testing.T) {
	bin, pristine := teethCompiled(t)
	p := bin.Procs[0]
	b, i := findInstr(t, p, "store", func(ins *ir.Instr) bool { return ins.Op == ir.OpStore })
	j := -1
	for k := i + 1; k < len(b.Instrs); k++ {
		if b.Instrs[k].Op == ir.OpStore && b.Instrs[k].Imm != b.Instrs[i].Imm {
			j = k
			break
		}
	}
	if j < 0 {
		t.Fatal("no second store in the same block")
	}
	b.Instrs[i], b.Instrs[j] = b.Instrs[j], b.Instrs[i]
	requireStructurallyClean(t, bin, pristine)
	requireEquivCatch(t, bin, pristine, "different address")
}

// Tooth 4: operand swap on a non-commutative op — s-t3 becomes t3-s.
func TestToothOperandSwap(t *testing.T) {
	bin, pristine := teethCompiled(t)
	_, _ = findInstr(t, bin.Procs[0], "sub", func(ins *ir.Instr) bool {
		if ins.Op != ir.OpSub || ins.Src1 == ins.Src2 {
			return false
		}
		ins.Src1, ins.Src2 = ins.Src2, ins.Src1
		return true
	})
	requireStructurallyClean(t, bin, pristine)
	requireEquivCatch(t, bin, pristine, "")
}

// Tooth 5: a stale rename — one use is rewired to a different register
// that is also defined on every path, so def-before-use has nothing to
// object to.
func TestToothStaleRename(t *testing.T) {
	bin, pristine := teethCompiled(t)
	_, _ = findInstr(t, bin.Procs[0], "sub", func(ins *ir.Instr) bool {
		if ins.Op != ir.OpSub || ins.Src2 == 1 {
			return false
		}
		ins.Src2 = 1 // the loop counter: defined on every path, wrong value
		return true
	})
	requireStructurallyClean(t, bin, pristine)
	requireEquivCatch(t, bin, pristine, "")
}

// Tooth 6: inverted branch sense — the slots of a merged-block branch
// are swapped, sending the hot path cold and vice versa.
func TestToothWrongBranchSense(t *testing.T) {
	bin, pristine := teethCompiled(t)
	_, _ = findInstr(t, bin.Procs[0], "conditional branch", func(ins *ir.Instr) bool {
		if ins.Op != ir.OpBr || ins.Targets[0] == ins.Targets[1] {
			return false
		}
		ins.Targets[0], ins.Targets[1] = ins.Targets[1], ins.Targets[0]
		return true
	})
	requireStructurallyClean(t, bin, pristine)
	requireEquivCatch(t, bin, pristine, "")
}

// Tooth 7: inverted branch condition — cmpeqi becomes cmpnei. The
// instruction shape, dependences, and schedule are identical.
func TestToothWrongCondition(t *testing.T) {
	bin, pristine := teethCompiled(t)
	_, _ = findInstr(t, bin.Procs[0], "cmpeqi", func(ins *ir.Instr) bool {
		if ins.Op != ir.OpCmpEQI {
			return false
		}
		ins.Op = ir.OpCmpNEI
		return true
	})
	requireStructurallyClean(t, bin, pristine)
	requireEquivCatch(t, bin, pristine, "")
}

// Tooth 8: an effect speculated past its guard, with the metadata
// falsified to match — the store of the loop counter (whose operands
// are block live-ins, so no data dependence is violated) moves above
// the preceding exit branch, and its unit annotation is rewritten so
// the schedule still looks internally consistent. Exactly the
// miscompile shape the structural checker cannot see: it trusts the
// metadata the buggy pass also controls.
func TestToothSpeculatedStore(t *testing.T) {
	bin, pristine := teethCompiled(t)
	p := bin.Procs[0]
	var tb *ir.Block
	e, sp := -1, -1
	for _, b := range p.Blocks {
		e, sp = -1, -1
		for i := range b.Instrs {
			op := b.Instrs[i].Op
			if op == ir.OpBr {
				e = i // last branch before the store: nothing crosses any other exit
			}
			if e >= 0 && op == ir.OpStore && b.Instrs[i].Src2 == 1 {
				sp = i
				break
			}
		}
		if e >= 0 && sp > e {
			tb = b
			break
		}
	}
	if tb == nil {
		t.Fatal("no (branch, later store-of-r1) pair in one block")
	}
	tb.Instrs[e], tb.Instrs[sp] = tb.Instrs[sp], tb.Instrs[e]
	// Cycles stay positional (the swapped instructions inherit each
	// other's slots, and the store's operands are live-ins, so every
	// recomputed dependence still holds). The unit annotations are
	// falsified to keep the exit's unit agreeing with ExitUnits and the
	// store looking at home below the guard.
	tb.Units[sp] = tb.Units[e]
	requireStructurallyClean(t, bin, pristine)
	requireEquivCatch(t, bin, pristine, "retired before this exit")
}
