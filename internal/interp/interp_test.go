package interp

import (
	"strings"
	"testing"

	"pathsched/internal/ir"
)

func run(t *testing.T, prog *ir.Program, cfg Config) *Result {
	t.Helper()
	res, err := Run(prog, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// sumLoop emits the sum 0+1+...+n-1 and returns it.
func sumLoop(n int64) *ir.Program {
	bd := ir.NewBuilder("sum", 8)
	pb := bd.Proc("main")
	entry, head, body, exit := pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock()
	const i, sum, c = 1, 2, 3
	entry.Add(ir.MovI(i, 0), ir.MovI(sum, 0))
	entry.Jmp(head.ID())
	head.Add(ir.CmpLTI(c, i, n))
	head.Br(c, body.ID(), exit.ID())
	body.Add(ir.Add(sum, sum, i), ir.AddI(i, i, 1))
	body.Jmp(head.ID())
	exit.Add(ir.Emit(sum))
	exit.Ret(sum)
	return bd.Finish()
}

func TestArithmeticAndEmit(t *testing.T) {
	bd := ir.NewBuilder("arith", 8)
	pb := bd.Proc("main")
	b := pb.NewBlock()
	b.Add(
		ir.MovI(1, 6), ir.MovI(2, 7),
		ir.Mul(3, 1, 2), ir.Emit(3), // 42
		ir.Sub(4, 3, 1), ir.Emit(4), // 36
		ir.AddI(5, 4, -6), ir.Emit(5), // 30
		ir.XorI(6, 5, 0xff), ir.Emit(6), // 225
		ir.ShlI(7, 1, 2), ir.Emit(7), // 24
		ir.ShrI(8, 7, 3), ir.Emit(8), // 3
		ir.And(9, 3, 2), ir.Emit(9), // 42&7 = 2
		ir.Or(10, 9, 8), ir.Emit(10), // 3
		ir.CmpLE(11, 1, 2), ir.Emit(11), // 1
		ir.CmpEQI(12, 3, 42), ir.Emit(12), // 1
		ir.CmpGTI(13, 3, 42), ir.Emit(13), // 0
	)
	b.Ret(3)
	res := run(t, bd.Finish(), Config{})
	want := []int64{42, 36, 30, 225, 24, 3, 2, 3, 1, 1, 0}
	if len(res.Output) != len(want) {
		t.Fatalf("output = %v, want %v", res.Output, want)
	}
	for i := range want {
		if res.Output[i] != want[i] {
			t.Fatalf("output[%d] = %d, want %d", i, res.Output[i], want[i])
		}
	}
	if res.Ret != 42 {
		t.Fatalf("ret = %d, want 42", res.Ret)
	}
}

func TestLoopSum(t *testing.T) {
	res := run(t, sumLoop(100), Config{})
	if res.Ret != 4950 {
		t.Fatalf("sum = %d, want 4950", res.Ret)
	}
	if res.DynBranches != 101 {
		t.Fatalf("branches = %d, want 101", res.DynBranches)
	}
	// Unscheduled code charges one cycle per executed instruction.
	if res.Cycles != res.DynInstrs {
		t.Fatalf("cycles = %d, instrs = %d; unscheduled must match", res.Cycles, res.DynInstrs)
	}
}

func TestMemoryAndData(t *testing.T) {
	bd := ir.NewBuilder("mem", 16)
	bd.Data(4, 10, 20, 30)
	pb := bd.Proc("main")
	b := pb.NewBlock()
	b.Add(
		ir.MovI(1, 4),
		ir.Load(2, 1, 1),  // mem[5] = 20
		ir.AddI(3, 2, 5),  // 25
		ir.Store(1, 2, 3), // mem[6] = 25
		ir.Load(4, 1, 2),  // 25
		ir.Emit(4),
	)
	b.Ret(4)
	res := run(t, bd.Finish(), Config{})
	if res.Ret != 25 {
		t.Fatalf("ret = %d, want 25", res.Ret)
	}
}

func TestCallsAndRecursion(t *testing.T) {
	bd := ir.NewBuilder("fib", 8)
	pb := bd.Proc("main")
	fib := bd.Proc("fib")

	// fib(n) = n < 2 ? n : fib(n-1) + fib(n-2)
	f0, fbase, frec1, frec2 := fib.NewBlock(), fib.NewBlock(), fib.NewBlock(), fib.NewBlock()
	const n, c, a, b2, tmp = 1, 8, 9, 10, 11
	f0.Add(ir.CmpLTI(c, n, 2))
	f0.Br(c, fbase.ID(), frec1.ID())
	fbase.Ret(n)
	frec1.Add(ir.AddI(tmp, n, -1))
	frec1.Call(a, fib.ID(), frec2.ID(), tmp)
	frec2.Add(ir.AddI(tmp, n, -2))
	last := fib.NewBlock()
	frec2.Call(b2, fib.ID(), last.ID(), tmp)
	last.Add(ir.Add(a, a, b2))
	last.Ret(a)

	m0, m1 := pb.NewBlock(), pb.NewBlock()
	m0.Add(ir.MovI(2, 10))
	m0.Call(3, fib.ID(), m1.ID(), 2)
	m1.Add(ir.Emit(3))
	m1.Ret(3)

	res := run(t, bd.Finish(), Config{})
	if res.Ret != 55 {
		t.Fatalf("fib(10) = %d, want 55", res.Ret)
	}
	if res.Calls < 100 {
		t.Fatalf("calls = %d, want many recursive calls", res.Calls)
	}
}

func TestSwitchSemantics(t *testing.T) {
	mk := func(idx int64) *ir.Program {
		bd := ir.NewBuilder("sw", 8)
		pb := bd.Proc("main")
		entry := pb.NewBlock()
		t0, t1, dflt := pb.NewBlock(), pb.NewBlock(), pb.NewBlock()
		entry.Add(ir.MovI(1, idx))
		entry.Switch(1, t0.ID(), t1.ID(), dflt.ID())
		t0.Ret(1) // returns idx... use distinct consts
		t1.Add(ir.MovI(2, 100))
		t1.Ret(2)
		dflt.Add(ir.MovI(2, 999))
		dflt.Ret(2)
		return bd.Finish()
	}
	if res := run(t, mk(0), Config{}); res.Ret != 0 {
		t.Fatalf("switch(0) ret %d", res.Ret)
	}
	if res := run(t, mk(1), Config{}); res.Ret != 100 {
		t.Fatalf("switch(1) ret %d", res.Ret)
	}
	if res := run(t, mk(7), Config{}); res.Ret != 999 {
		t.Fatalf("switch(7) ret %d (default)", res.Ret)
	}
	if res := run(t, mk(-3), Config{}); res.Ret != 999 {
		t.Fatalf("switch(-3) ret %d (default)", res.Ret)
	}
}

func TestSpeculativeLoadIsNonExcepting(t *testing.T) {
	bd := ir.NewBuilder("spec", 8)
	pb := bd.Proc("main")
	b := pb.NewBlock()
	ld := ir.Load(2, 1, 1_000_000)
	ld.Spec = true
	b.Add(ir.MovI(1, 0), ld, ir.Emit(2))
	b.Ret(2)
	res := run(t, bd.Finish(), Config{})
	if res.Ret != 0 {
		t.Fatalf("speculative unmapped load = %d, want 0", res.Ret)
	}
}

func TestNonSpeculativeUnmappedLoadFails(t *testing.T) {
	bd := ir.NewBuilder("fault", 8)
	pb := bd.Proc("main")
	b := pb.NewBlock()
	b.Add(ir.MovI(1, 0), ir.Load(2, 1, 1_000_000))
	b.Ret(2)
	if _, err := Run(bd.Finish(), Config{}); err == nil {
		t.Fatal("unmapped non-speculative load must fail")
	} else if !strings.Contains(err.Error(), "unmapped") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestStepLimit(t *testing.T) {
	bd := ir.NewBuilder("inf", 8)
	pb := bd.Proc("main")
	b := pb.NewBlock()
	b.Add(ir.Nop())
	b.Jmp(b.ID())
	if _, err := Run(bd.Finish(), Config{MaxSteps: 1000}); err == nil {
		t.Fatal("infinite loop must hit the step limit")
	}
}

func TestDepthLimit(t *testing.T) {
	bd := ir.NewBuilder("deep", 8)
	pb := bd.Proc("main")
	b, cont := pb.NewBlock(), pb.NewBlock()
	b.Call(1, 0, cont.ID())
	cont.Ret(1)
	if _, err := Run(bd.Finish(), Config{MaxDepth: 50}); err == nil {
		t.Fatal("unbounded recursion must hit the depth limit")
	}
}

// eventLog records per-event callbacks (the oracle's eventObserver
// stream, or a flattened batch stream) for inspection.
type eventLog struct {
	enters []ir.BlockID
	exits  []ir.ProcID
	edges  [][2]ir.BlockID
	blocks []ir.BlockID
}

func (e *eventLog) EnterProc(p ir.ProcID, entry ir.BlockID) { e.enters = append(e.enters, entry) }
func (e *eventLog) ExitProc(p ir.ProcID)                    { e.exits = append(e.exits, p) }
func (e *eventLog) Edge(p ir.ProcID, from, to ir.BlockID) {
	e.edges = append(e.edges, [2]ir.BlockID{from, to})
}
func (e *eventLog) Block(p ir.ProcID, b ir.BlockID) { e.blocks = append(e.blocks, b) }

// TestObserverEvents pins the batch stream of a small loop, flattened
// to per-block events: one activation, every block entered in order,
// one edge between each consecutive pair, one return.
func TestObserverEvents(t *testing.T) {
	bl := &batchLog{}
	res := run(t, sumLoop(3), Config{Batch: bl})
	log := bl.flatten()
	if res.Ret != 3 {
		t.Fatalf("ret = %d", res.Ret)
	}
	if len(log.enters) != 1 || log.enters[0] != 0 {
		t.Fatalf("enters = %v", log.enters)
	}
	// Block sequence: entry, head, (body, head) x3, exit.
	want := []ir.BlockID{0, 1, 2, 1, 2, 1, 2, 1, 3}
	if len(log.blocks) != len(want) {
		t.Fatalf("blocks = %v, want %v", log.blocks, want)
	}
	for i := range want {
		if log.blocks[i] != want[i] {
			t.Fatalf("blocks = %v, want %v", log.blocks, want)
		}
	}
	if len(log.edges) != len(want)-1 {
		t.Fatalf("edges = %d, want %d", len(log.edges), len(want)-1)
	}
	for i, e := range log.edges {
		if e[0] != want[i] || e[1] != want[i+1] {
			t.Fatalf("edge %d = %v, want %v->%v", i, e, want[i], want[i+1])
		}
	}
	if res.DynBlocks != int64(len(want)) {
		t.Fatalf("DynBlocks = %d, want %d", res.DynBlocks, len(want))
	}
	if len(log.exits) != 1 {
		t.Fatalf("exits = %v, want one", log.exits)
	}
}

func TestScheduledCycleAccounting(t *testing.T) {
	prog := sumLoop(10)
	// Hand-annotate: pretend each block was compacted to fewer cycles.
	for _, b := range prog.Proc(0).Blocks {
		b.Cycles = make([]int32, len(b.Instrs))
		// All instructions in cycle 0, terminator in cycle 1 when the
		// block has more than one instruction.
		for i := range b.Cycles {
			if i == len(b.Instrs)-1 && len(b.Instrs) > 1 {
				b.Cycles[i] = 1
			}
		}
		b.Span = b.Cycles[len(b.Cycles)-1] + 1
	}
	if err := ir.Verify(prog); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	res := run(t, prog, Config{})
	// entry span 2, (head 2 + body 2) x10, head 2, exit 2 => 2+40+2+2=46.
	if res.Cycles != 46 {
		t.Fatalf("cycles = %d, want 46", res.Cycles)
	}
}

// mergedProg builds a hand-merged superblock:
//
//	b0 (merged, 3 units): movi r1,K; br r1 -> b1 (exit after unit 1, taken when r1!=0)
//	                      movi r2,7; emit r2; jmp b2 (completion)
//	b1: emit r1; ret r1   (early-exit path)
//	b2: ret r2
func mergedProg(takeExit int64) *ir.Program {
	bd := ir.NewBuilder("merged", 8)
	pb := bd.Proc("main")
	sb, early, done := pb.NewBlock(), pb.NewBlock(), pb.NewBlock()
	exitBr := ir.Br(1, early.ID(), ir.NoBlock) // taken -> early, else fall through
	sb.Add(
		ir.MovI(1, takeExit),
		exitBr,
		ir.MovI(2, 7),
		ir.Emit(2),
	)
	sb.Jmp(done.ID())
	early.Add(ir.Emit(1))
	early.Ret(1)
	done.Ret(2)
	prog := bd.Program()
	b := prog.Proc(0).Blocks[0]
	b.Cycles = []int32{0, 1, 1, 2, 3}
	b.Span = 4
	b.SBSize = 3
	b.ExitUnits = []int32{0, 1, 0, 0, 0} // exit at the br completes 1 unit
	if err := ir.Verify(prog); err != nil {
		panic(err)
	}
	return prog
}

func TestMergedSuperblockEarlyExit(t *testing.T) {
	res := run(t, mergedProg(1), Config{})
	if res.Ret != 1 {
		t.Fatalf("ret = %d, want early-exit value 1", res.Ret)
	}
	// Early exit at the br (cycle 1) costs 2 cycles, then early block
	// (2 instrs, unscheduled) and that's it: emit+ret = 2 cycles.
	if res.Cycles != 2+2 {
		t.Fatalf("cycles = %d, want 4", res.Cycles)
	}
	if res.SBEntries != 1 || res.SBExecuted != 1 || res.SBSize != 3 {
		t.Fatalf("SB stats = %d entries, %d executed, %d size; want 1,1,3",
			res.SBEntries, res.SBExecuted, res.SBSize)
	}
}

func TestMergedSuperblockCompletion(t *testing.T) {
	res := run(t, mergedProg(0), Config{})
	if res.Ret != 7 {
		t.Fatalf("ret = %d, want completion value 7", res.Ret)
	}
	// Completion: span 4, then done block 1 instr.
	if res.Cycles != 4+1 {
		t.Fatalf("cycles = %d, want 5", res.Cycles)
	}
	if res.SBEntries != 1 || res.SBExecuted != 3 || res.SBSize != 3 {
		t.Fatalf("SB stats = %d entries, %d executed, %d size; want 1,3,3",
			res.SBEntries, res.SBExecuted, res.SBSize)
	}
	if len(res.Output) != 1 || res.Output[0] != 7 {
		t.Fatalf("output = %v", res.Output)
	}
}

// fetchLog records fetch ranges and charges a fixed stall per call.
type fetchLog struct {
	ranges [][2]int64
	stall  int64
}

func (f *fetchLog) FetchRange(start, end int64) int64 {
	f.ranges = append(f.ranges, [2]int64{start, end})
	return f.stall
}

func TestFetchSink(t *testing.T) {
	prog := mergedProg(1)
	prog.Proc(0).Blocks[0].Addr = 1024
	fl := &fetchLog{stall: 6}
	res := run(t, prog, Config{Fetch: fl})
	if len(fl.ranges) != 2 { // merged block + early block
		t.Fatalf("fetch ranges = %v, want 2", fl.ranges)
	}
	// Early exit at instruction index 1: fetched bytes [1024, 1024+8).
	if fl.ranges[0] != [2]int64{1024, 1032} {
		t.Fatalf("first fetch = %v, want [1024,1032)", fl.ranges[0])
	}
	if res.FetchStall != 12 {
		t.Fatalf("fetch stall = %d, want 12", res.FetchStall)
	}
	noStall := run(t, prog, Config{}).Cycles
	if res.Cycles != noStall+12 {
		t.Fatalf("cycles = %d, want %d+12", res.Cycles, noStall)
	}
}

func TestFramePoolReuseDoesNotLeakState(t *testing.T) {
	// Callee writes a high register; a second call must observe zeroes.
	bd := ir.NewBuilder("pool", 8)
	pb := bd.Proc("main")
	callee := bd.Proc("leaf")
	cb := callee.NewBlock()
	cb.Add(ir.Emit(50), ir.MovI(50, 1234)) // emit r50 (stale?), then dirty it
	cb.Ret(50)
	m0, m1, m2 := pb.NewBlock(), pb.NewBlock(), pb.NewBlock()
	m0.Call(2, callee.ID(), m1.ID())
	m1.Call(3, callee.ID(), m2.ID())
	m2.Ret(3)
	res := run(t, bd.Finish(), Config{})
	if res.Output[0] != 0 || res.Output[1] != 0 {
		t.Fatalf("stale registers leaked across frames: %v", res.Output)
	}
}

// TestDecisionRecordRoundTrip pins the decision record's encoding:
// every index reads back with the width it was written at, across the
// escape, and an empty or truncated record reads as such.
func TestDecisionRecordRoundTrip(t *testing.T) {
	ks := []int{0, 1, 254, 255, 256, 383, 384, 70000}
	var rec []byte
	for _, k := range ks {
		rec = AppendDecision(rec, k)
	}
	for _, want := range ks {
		k, n := ReadDecision(rec)
		if n <= 0 || k != want {
			t.Fatalf("read %d (%d bytes), want %d", k, n, want)
		}
		rec = rec[n:]
	}
	if _, n := ReadDecision(rec); n != 0 {
		t.Fatalf("empty record reads %d bytes, want 0", n)
	}
	if _, n := ReadDecision([]byte{DecisionEscape, 0x80}); n >= 0 {
		t.Fatalf("truncated escape reads %d bytes, want a malformed record", n)
	}
}
