package ir

import (
	"testing"
)

// fpBaseProgram builds a structurally rich program for fingerprint
// tests: two procedures, every terminator kind, a call with arguments,
// a speculative load, multiple data segments, and one block carrying
// schedule and superblock annotations.
func fpBaseProgram() *Program {
	bd := NewBuilder("fp-base", 64)
	bd.Data(0, 10, 20, 30)
	bd.Data(8, 7)
	bd.Data(16, 1, 2)

	helper := bd.Proc("helper")
	hb := helper.NewBlock()
	hb.Add(AddI(0, RegArg0, 5))
	hb.Ret(0)

	main := bd.Proc("main")
	bs := main.NewBlocks(5)
	bs[0].Add(MovI(1, 3), Load(2, 1, 0), Instr{Op: OpLoad, Dst: 3, Src1: 1, Imm: 1, Spec: true})
	bs[0].Br(2, bs[1].ID(), bs[2].ID())
	bs[1].Add(CmpLTI(4, 1, 10))
	bs[1].Switch(4, bs[2].ID(), bs[3].ID(), bs[2].ID())
	bs[2].Call(5, helper.ID(), bs[3].ID(), 1, 2)
	bs[3].Add(Emit(5))
	bs[3].Jmp(bs[4].ID())
	bs[4].Ret(5)

	prog := bd.Program()
	// Annotate one block as a scheduled merged superblock so the hash
	// covers schedule metadata.
	b := prog.Procs[1].Blocks[3]
	b.SBID, b.SBIndex, b.SBSize = 0, 0, 2
	b.ExitUnits = []int32{1, 2}
	b.Cycles = []int32{0, 1}
	b.Span = 2
	b.Addr = 128
	return prog
}

func TestFingerprintCloneAndRehashStable(t *testing.T) {
	prog := fpBaseProgram()
	h := Fingerprint(prog)
	if h2 := Fingerprint(prog); h2 != h {
		t.Fatalf("re-hashing the same program changed the digest: %s vs %s", h.Short(), h2.Short())
	}
	if hc := Fingerprint(CloneProgram(prog)); hc != h {
		t.Fatalf("cloning changed the digest: %s vs %s", h.Short(), hc.Short())
	}
}

func TestFingerprintDetectsMutations(t *testing.T) {
	base := Fingerprint(fpBaseProgram())
	cases := []struct {
		name string
		mut  func(*Program)
	}{
		{"swap-operands", func(p *Program) {
			ins := &p.Procs[1].Blocks[0].Instrs[1]
			ins.Src1, ins.Src2 = ins.Src2, ins.Src1
		}},
		{"flip-branch-target", func(p *Program) {
			term := p.Procs[1].Blocks[0].Terminator()
			term.Targets[0], term.Targets[1] = term.Targets[1], term.Targets[0]
		}},
		{"edit-data-word", func(p *Program) { p.Data[0].Values[1]++ }},
		{"change-imm", func(p *Program) { p.Procs[1].Blocks[0].Instrs[0].Imm++ }},
		{"toggle-spec", func(p *Program) { p.Procs[1].Blocks[0].Instrs[2].Spec = false }},
		{"change-opcode", func(p *Program) { p.Procs[1].Blocks[0].Instrs[0].Op = OpNop }},
		{"shrink-switch-table", func(p *Program) {
			term := p.Procs[1].Blocks[1].Terminator()
			term.Targets = term.Targets[:2]
		}},
		{"drop-call-arg", func(p *Program) {
			term := p.Procs[1].Blocks[2].Terminator()
			term.Args = term.Args[:1]
		}},
		{"change-callee", func(p *Program) { p.Procs[1].Blocks[2].Terminator().Callee = 1 }},
		{"append-instr", func(p *Program) {
			b := p.Procs[0].Blocks[0]
			b.Instrs = append(b.Instrs[:1:1], append([]Instr{Nop()}, b.Instrs[1:]...)...)
		}},
		{"change-memsize", func(p *Program) { p.MemSize++ }},
		{"change-main", func(p *Program) { p.Main = 0 }},
		{"unschedule-block", func(p *Program) { p.Procs[1].Blocks[3].Cycles = nil }},
		{"change-span", func(p *Program) { p.Procs[1].Blocks[3].Span++ }},
		{"change-addr", func(p *Program) { p.Procs[1].Blocks[3].Addr += 4 }},
		{"change-sbsize", func(p *Program) { p.Procs[1].Blocks[3].SBSize++ }},
		{"change-exit-units", func(p *Program) { p.Procs[1].Blocks[3].ExitUnits[0] = 9 }},
	}
	for _, tc := range cases {
		p := fpBaseProgram()
		tc.mut(p)
		if Fingerprint(p) == base {
			t.Errorf("%s: digest unchanged by structural mutation", tc.name)
		}
	}
}

func TestFingerprintNilVsEmptySchedule(t *testing.T) {
	a, b := fpBaseProgram(), fpBaseProgram()
	a.Procs[1].Blocks[0].Cycles = nil
	b.Procs[1].Blocks[0].Cycles = []int32{}
	if Fingerprint(a) == Fingerprint(b) {
		t.Fatal("nil (unscheduled) and empty Cycles must hash differently")
	}
}

func TestFingerprintDataSegOrder(t *testing.T) {
	// Overlapping segments are order-sensitive: the later segment wins
	// in initMem, so swapped declarations are different programs.
	mkOverlap := func(first, second DataSeg) *Program {
		p := fpBaseProgram()
		p.Data = []DataSeg{first, second}
		return p
	}
	s1 := DataSeg{Addr: 0, Values: []int64{1, 2, 3}}
	s2 := DataSeg{Addr: 2, Values: []int64{9, 9}}
	if Fingerprint(mkOverlap(s1, s2)) == Fingerprint(mkOverlap(s2, s1)) {
		t.Fatal("permuting overlapping data segments must change the digest")
	}
}
