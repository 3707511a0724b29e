package profile

import (
	"testing"

	"pathsched/internal/ir"
)

// twoProcProg builds a program with two procedures so Begin/End events
// can legally carry different proc ids: proc 0 is a three-block jump
// chain, proc 1 a single returning block.
func twoProcProg() *ir.Program {
	bd := ir.NewBuilder("twoproc", 8)
	pb := bd.Proc("main")
	bbs := pb.NewBlocks(3)
	for i, bb := range bbs {
		bb.Add(ir.MovI(1, int64(i)))
		bb.Jmp(bbs[(i+1)%3].ID())
	}
	qb := bd.Proc("leaf")
	qb.NewBlock().Ret(0)
	return bd.Program()
}

// A mismatched EndProc — one whose procedure is not the innermost live
// activation — must not pop the caller's window. An unconditional pop
// would discard proc 0's activation here, so the window would restart
// at b1 and the two-block path [b0,b1] would never be counted.
func TestExitProcMismatchedDoesNotCorruptCallerWindow(t *testing.T) {
	prog := twoProcProg()
	pp := NewPathProfiler(prog, PathConfig{Depth: 15})

	pp.BeginProc(0, 0)
	pp.EndProc(1) // unbalanced: proc 1 never entered
	pp.EdgeBatch(0, walkRecs([]ir.BlockID{0, 1}))
	pp.EndProc(0)

	pf := pp.Profile()
	if got := pf.Freq(0, []ir.BlockID{0, 1}); got != 1 {
		t.Fatalf("Freq([b0,b1]) = %d, want 1: mismatched EndProc corrupted the caller's window", got)
	}
}

// The same guard must keep a properly nested callee's end working.
func TestExitProcBalancedStillPops(t *testing.T) {
	prog := twoProcProg()
	pp := NewPathProfiler(prog, PathConfig{Depth: 15})

	pp.BeginProc(0, 0)
	pp.BeginProc(1, 0)
	pp.EndProc(1)                                 // matched: pops the callee
	pp.EdgeBatch(0, walkRecs([]ir.BlockID{0, 1})) // caller's window resumes at [b0]
	pp.EndProc(0)

	pf := pp.Profile()
	if got := pf.Freq(0, []ir.BlockID{0, 1}); got != 1 {
		t.Fatalf("caller Freq([b0,b1]) = %d, want 1", got)
	}
	if got := pf.Freq(1, []ir.BlockID{0}); got != 1 {
		t.Fatalf("callee Freq([b0]) = %d, want 1", got)
	}
}

// An unbalanced event stream must leave later, well-formed activations
// intact: after a stray end drains nothing, a fresh Begin/Batch/End
// round still profiles normally.
func TestExitProcUnbalancedStreamKeepsProfiling(t *testing.T) {
	prog := twoProcProg()
	pp := NewPathProfiler(prog, PathConfig{Depth: 15})

	pp.EndProc(0) // stray end on an empty stack
	pp.BeginProc(0, 0)
	pp.EdgeBatch(0, walkRecs([]ir.BlockID{0, 1}))
	pp.EndProc(1) // stray end for the wrong proc
	pp.EdgeBatch(0, walkRecs([]ir.BlockID{1, 2}))
	pp.EndProc(0)

	pf := pp.Profile()
	if got := pf.Freq(0, []ir.BlockID{0, 1, 2}); got != 1 {
		t.Fatalf("Freq([b0,b1,b2]) = %d, want 1", got)
	}
}

// TrimToDepth must never trim a sequence to nothing: with Depth=1 every
// conditional block overflows the reserved extension slot, and the old
// loop emptied the suffix entirely, making downstream Freq queries
// return 0 and silently disabling path guidance for the trace.
func TestTrimToDepthAllConditionalReturnsFinalBlock(t *testing.T) {
	prog := chainProg([]bool{true, true, true, true})
	pp := NewPathProfiler(prog, PathConfig{Depth: 1})
	feedWalk(pp, []ir.BlockID{0, 1, 2, 3})
	pf := pp.Profile()

	got := pf.TrimToDepth(0, []ir.BlockID{0, 1, 2, 3})
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("TrimToDepth = %v, want [3] (minimum suffix)", got)
	}
	// The minimum suffix must be queryable: single blocks are always
	// recorded, so guidance stays alive.
	if f := pf.Freq(0, got); f != 1 {
		t.Fatalf("Freq(min suffix) = %d, want 1", f)
	}
}

// The MaxBlocks arm of the trim loop gets the same floor.
func TestTrimToDepthMaxBlocksOneReturnsFinalBlock(t *testing.T) {
	prog := chainProg([]bool{false, false, false, false})
	pp := NewPathProfiler(prog, PathConfig{Depth: 15, MaxBlocks: 1})
	feedWalk(pp, []ir.BlockID{0, 1, 2, 3})
	pf := pp.Profile()

	got := pf.TrimToDepth(0, []ir.BlockID{0, 1, 2})
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("TrimToDepth = %v, want [2]", got)
	}
}

// Empty input stays empty — the floor applies to non-empty sequences.
func TestTrimToDepthEmptyInput(t *testing.T) {
	prog := chainProg([]bool{true, true})
	pp := NewPathProfiler(prog, PathConfig{Depth: 1})
	feedWalk(pp, []ir.BlockID{0, 1})
	if got := pp.Profile().TrimToDepth(0, nil); len(got) != 0 {
		t.Fatalf("TrimToDepth(nil) = %v, want empty", got)
	}
}
