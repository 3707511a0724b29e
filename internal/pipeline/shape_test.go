package pipeline

import (
	"strings"
	"testing"

	"pathsched/internal/ir"
)

// shapeProgram builds a two-block program whose entry ends in a switch
// with the given number of targets (all to the exit block).
func shapeProgram(switchTargets int) *ir.Program {
	bd := ir.NewBuilder("shape", 16)
	p := bd.Proc("main")
	bs := p.NewBlocks(2)
	targets := make([]ir.BlockID, switchTargets)
	for i := range targets {
		targets[i] = bs[1].ID()
	}
	bs[0].Add(ir.MovI(1, 0))
	bs[0].Switch(1, targets...)
	bs[1].Ret(1)
	return bd.Program()
}

func TestCheckSameShapeAccepts(t *testing.T) {
	if err := checkSameShape(shapeProgram(3), shapeProgram(3)); err != nil {
		t.Fatalf("identical shapes rejected: %v", err)
	}
}

// Regression test: two builds can agree on every terminator opcode yet
// disagree on successor counts (a switch that lost a duplicated arm),
// which would let runScheme pair a training profile with a test CFG it
// doesn't describe. checkSameShape must compare Targets lengths too.
func TestCheckSameShapeRejectsSuccessorCountMismatch(t *testing.T) {
	err := checkSameShape(shapeProgram(3), shapeProgram(2))
	if err == nil {
		t.Fatal("successor-count mismatch not detected")
	}
	if !strings.Contains(err.Error(), "successor count 3 vs 2") {
		t.Fatalf("err = %v, want a successor-count message", err)
	}
}

func TestCheckSameShapeRejectsTerminatorMismatch(t *testing.T) {
	a := shapeProgram(2)
	b := shapeProgram(2)
	term := b.Procs[0].Blocks[0].Terminator()
	term.Op = ir.OpBr
	if err := checkSameShape(a, b); err == nil {
		t.Fatal("terminator opcode mismatch not detected")
	}
}

// brProgram builds a program whose entry ends in a two-way branch to
// blocks b1 and b2, in that order unless swapped.
func brProgram(swapped bool) *ir.Program {
	bd := ir.NewBuilder("br", 16)
	p := bd.Proc("main")
	bs := p.NewBlocks(3)
	taken, other := bs[1].ID(), bs[2].ID()
	if swapped {
		taken, other = other, taken
	}
	bs[0].Add(ir.MovI(1, 1))
	bs[0].Br(1, taken, other)
	bs[1].Ret(1)
	bs[2].Ret(1)
	return bd.Finish()
}

// Regression test: layout replay walks the testing build's compile
// with the training build's terminators, so two builds whose branches
// agree on opcode and arity but not on target ids must not pass as the
// same shape.
func TestCheckSameShapeRejectsSwappedBrTargets(t *testing.T) {
	if err := checkSameShape(brProgram(false), brProgram(false)); err != nil {
		t.Fatalf("identical shapes rejected: %v", err)
	}
	err := checkSameShape(brProgram(false), brProgram(true))
	if err == nil {
		t.Fatal("swapped br targets not detected")
	}
	if !strings.Contains(err.Error(), "target 0 is b1 vs b2") {
		t.Fatalf("err = %v, want a target message", err)
	}
}

// callProgram builds main calling the procedure named callee ("f" or
// "g"), both leaf procedures.
func callProgram(callee string) *ir.Program {
	bd := ir.NewBuilder("call", 16)
	main := bd.Proc("main")
	f, g := bd.Proc("f"), bd.Proc("g")
	f.NewBlock().Ret(0)
	g.NewBlock().Ret(0)
	id := f.ID()
	if callee == "g" {
		id = g.ID()
	}
	bs := main.NewBlocks(2)
	bs[0].Call(0, id, bs[1].ID())
	bs[1].Ret(0)
	return bd.Finish()
}

func TestCheckSameShapeRejectsCalleeMismatch(t *testing.T) {
	if err := checkSameShape(callProgram("f"), callProgram("f")); err != nil {
		t.Fatalf("identical shapes rejected: %v", err)
	}
	err := checkSameShape(callProgram("f"), callProgram("g"))
	if err == nil {
		t.Fatal("call to another procedure not detected")
	}
	if !strings.Contains(err.Error(), "call to proc") {
		t.Fatalf("err = %v, want a callee message", err)
	}
}
