package regalloc_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pathsched/internal/check"
	"pathsched/internal/interp"
	"pathsched/internal/ir"
	"pathsched/internal/ir/irtest"
	"pathsched/internal/regalloc"
)

// Property: linear-scan allocation never introduces a read of an
// undefined register. Randomized executable programs get their
// block-local scratch defs rewritten onto fresh single-assignment
// virtuals (what renaming does), go through AssignVirtuals, and the
// result must pass check.DefBeforeUse against the pristine program's
// baseline — and still compute the same outputs.
func TestPropertyAllocPreservesDefBeforeUse(t *testing.T) {
	prop := func(seed int64, sz uint8) bool {
		prog := irtest.RandExecProg(seed, int(sz%20)+6)
		pristine := ir.CloneProgram(prog)
		virtualize(prog, rand.New(rand.NewSource(seed^0x5eed)))

		var s regalloc.Scratch // reused across blocks, like one compaction worker
		for _, p := range prog.Procs {
			pool := regalloc.FreePool(p)
			for _, b := range p.Blocks {
				if err := s.AssignVirtuals(b, pool); err != nil {
					t.Logf("seed %d: %v", seed, err)
					return false
				}
			}
		}
		if err := ir.Verify(prog); err != nil {
			t.Logf("seed %d: allocated program unverifiable: %v", seed, err)
			return false
		}
		if vs := check.DefBeforeUse(prog, check.BaselineOf(pristine)); len(vs) != 0 {
			t.Logf("seed %d: %v", seed, check.Err("regalloc", vs))
			return false
		}
		want, err1 := interp.Run(pristine, interp.Config{MaxSteps: 1 << 22})
		got, err2 := interp.Run(prog, interp.Config{MaxSteps: 1 << 22})
		if err1 != nil || err2 != nil {
			t.Logf("seed %d: run errors %v / %v", seed, err1, err2)
			return false
		}
		if want.Ret != got.Ret || len(want.Output) != len(got.Output) {
			t.Logf("seed %d: ret/output diverged after allocation", seed)
			return false
		}
		for i := range want.Output {
			if want.Output[i] != got.Output[i] {
				t.Logf("seed %d: output[%d] %d vs %d", seed, i, want.Output[i], got.Output[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// virtualize rewrites a random subset of the scratch-register defs of
// each block (and their same-block uses) onto fresh virtual registers.
// RandExecProg never reads a scratch register across a block boundary,
// so the rewrite preserves semantics by construction; each virtual is
// defined exactly once, matching renaming's single-assignment output.
func virtualize(prog *ir.Program, rng *rand.Rand) {
	next := ir.VirtBase
	for _, p := range prog.Procs {
		for _, b := range p.Blocks {
			cur := map[ir.Reg]ir.Reg{}
			sub := func(r *ir.Reg) {
				if v, ok := cur[*r]; ok {
					*r = v
				}
			}
			for i := range b.Instrs {
				ins := &b.Instrs[i]
				sub(&ins.Src1)
				sub(&ins.Src2)
				for j := range ins.Args {
					sub(&ins.Args[j])
				}
				if ins.HasDst() && ins.Dst >= 8 && ins.Dst < 24 {
					if rng.Intn(2) == 0 {
						cur[ins.Dst] = next
						ins.Dst = next
						next++
					} else {
						delete(cur, ins.Dst) // phys def shadows any earlier virtual
					}
				}
			}
		}
	}
}
