package interp

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"pathsched/internal/ir"
)

// wideTwin builds a small looping program whose scratch registers
// start at base: sum = Σ i*3 for i in [0,10), emitted and returned.
// base 1 yields an ordinary program; base near 300 numbers operands
// past 255, which dinstr's uint8 fields reach only through the dense
// frame slots decode assigns.
func wideTwin(base ir.Reg) *ir.Program {
	i, sum, tmp, cond := base, base+1, base+2, base+3
	bd := ir.NewBuilder("wide-twin", 16)
	p := bd.Proc("main")
	bs := p.NewBlocks(3)
	bs[0].Add(ir.MovI(i, 0), ir.MovI(sum, 0))
	bs[0].Jmp(bs[1].ID())
	bs[1].Add(
		ir.MulI(tmp, i, 3),
		ir.Add(sum, sum, tmp),
		ir.AddI(i, i, 1),
		ir.CmpLTI(cond, i, 10),
	)
	bs[1].Br(cond, bs[1].ID(), bs[2].ID())
	bs[2].Add(ir.Emit(sum))
	bs[2].Ret(sum)
	return bd.Program()
}

// manyRegs builds a program whose main names r0..r(n-1): a chain of
// moves through every register, so n > 256 cannot fit the frame.
func manyRegs(n int) *ir.Program {
	bd := ir.NewBuilder("many-regs", 8)
	b := bd.Proc("main").NewBlock()
	b.Add(ir.MovI(1, 7))
	for r := 2; r < n; r++ {
		b.Add(ir.Mov(ir.Reg(r), ir.Reg(r-1)))
	}
	b.Ret(ir.Reg(n - 1))
	return bd.Program()
}

// TestWideRegisterNumbersDecodeDensely pins dense frame slots: a
// program numbering its registers r297–r300 decodes without error
// into a 12-slot frame (r0–r7 plus its four) and runs on the decoded
// engine exactly like both the oracle and its narrow twin — Run
// results, batch streams, and RunCounted counts.
func TestWideRegisterNumbersDecodeDensely(t *testing.T) {
	narrow, wide := wideTwin(1), wideTwin(297)
	if err := ir.Verify(narrow); err != nil {
		t.Fatal(err)
	}
	if err := ir.Verify(wide); err != nil {
		t.Fatal(err)
	}
	we := EngineFor(wide)
	if we.err != nil {
		t.Fatalf("wide twin must decode: %v", we.err)
	}
	if got := we.procs[0].frameLen; got != 12 {
		t.Fatalf("wide twin frameLen = %d, want 12 (r0-r7 plus four registers)", got)
	}
	if got := EngineFor(narrow).procs[0].frameLen; got != 8 {
		t.Fatalf("narrow twin frameLen = %d, want 8 (r1-r4 keep slots 1-4)", got)
	}

	// Each twin against the oracle: Results, batch streams and fetch
	// traffic (diffRun), batch streams with flush boundaries and their
	// per-event flattening (diffBatch).
	wideRes := diffRun(t, "wide", wide)
	narrowRes := diffRun(t, "narrow", narrow)
	diffBatch(t, "wide", wide)
	diffBatch(t, "narrow", narrow)

	// The twins against each other.
	if !reflect.DeepEqual(wideRes, narrowRes) {
		t.Fatalf("twins diverge:\nwide:   %+v\nnarrow: %+v", wideRes, narrowRes)
	}
	if want := int64(135); wideRes.Ret != want {
		t.Fatalf("ret = %d, want %d", wideRes.Ret, want)
	}
	var bats [2]batchLog
	var counts [2]*profileTally
	for i, prog := range []*ir.Program{wide, narrow} {
		res, ec, err := EngineFor(prog).RunCounted(Config{Batch: &bats[i]})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, wideRes) {
			t.Fatalf("counted run result %+v, want %+v", res, wideRes)
		}
		counts[i] = tallyCounts(ec)
	}
	if !reflect.DeepEqual(bats[0], bats[1]) {
		t.Fatal("twins' batch streams diverge")
	}
	if !reflect.DeepEqual(counts[0], counts[1]) {
		t.Fatalf("twins' counted profiles diverge:\nwide:   %+v\nnarrow: %+v", counts[0], counts[1])
	}
}

// TestTooManyRegistersRejected pins the one failure mode dense slots
// leave: a procedure naming more than 256 registers fails every run
// with ErrTooManyRegisters, wrapped with its name and count, instead
// of panicking or falling back to a second engine. 256 still fits.
func TestTooManyRegistersRejected(t *testing.T) {
	if res := run(t, manyRegs(256), Config{}); res.Ret != 7 {
		t.Fatalf("256-register program: ret = %d, want 7", res.Ret)
	}
	prog := manyRegs(300)
	for _, cfg := range []Config{{}, {Batch: &batchLog{}}, {Fetch: &fetchLog{}}} {
		_, err := Run(prog, cfg)
		if !errors.Is(err, ErrTooManyRegisters) || !strings.Contains(err.Error(), "main names 300") {
			t.Fatalf("Run: err = %v, want %v naming main and 300", err, ErrTooManyRegisters)
		}
	}
	if _, ec, err := EngineFor(prog).RunCounted(Config{}); !errors.Is(err, ErrTooManyRegisters) || ec != nil {
		t.Fatalf("RunCounted: err = %v, counts %v; want %v and no counts", err, ec, ErrTooManyRegisters)
	}
	// The oracle, which sizes frames by register number, still runs it.
	if res, err := referenceRun(prog, Config{}); err != nil || res.Ret != 7 {
		t.Fatalf("oracle on 300 registers: ret %v, err %v", res, err)
	}
}

// TestTooManyArgumentsRejected: arguments land in the callee's slots
// 1–7, so a call passing more than ir.MaxArgs (which the verifier
// rejects) is a decode error, not a write into some other register.
func TestTooManyArgumentsRejected(t *testing.T) {
	bd := ir.NewBuilder("many-args", 8)
	main, leaf := bd.Proc("main"), bd.Proc("leaf")
	lb := leaf.NewBlock()
	lb.Ret(ir.RegArg0)
	args := make([]ir.Reg, ir.MaxArgs+1)
	for i := range args {
		args[i] = ir.Reg(10 + i)
	}
	mb := main.NewBlock()
	mb.Add(ir.Call(2, leaf.ID(), ir.NoBlock, args...))
	mb.Ret(2)
	if _, err := Run(bd.Program(), Config{}); err == nil || !strings.Contains(err.Error(), "call passes 8 arguments") {
		t.Fatalf("err = %v, want a too-many-arguments decode error", err)
	}
}
