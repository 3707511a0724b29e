package ir

import (
	"strings"
	"testing"
)

// diamond builds the Figure 1 CFG: A -> {B, X-side}, B -> {C, Y}, with
// an extra side-entrance X -> B and side exit B -> Y, all funneling to
// an exit block.
//
//	entry A: br -> B or X
//	X: jmp B        (side entrance into the AB trace)
//	B: br -> C or Y (side exit)
//	C: jmp exit
//	Y: jmp exit
//	exit: ret
func diamond(t *testing.T) *Program {
	t.Helper()
	bd := NewBuilder("diamond", 16)
	pb := bd.Proc("main")
	blocks := pb.NewBlocks(6)
	a, x, b, c, y, exit := blocks[0], blocks[1], blocks[2], blocks[3], blocks[4], blocks[5]
	a.Add(MovI(1, 1))
	a.Br(1, b.ID(), x.ID())
	x.Add(MovI(2, 2))
	x.Jmp(b.ID())
	b.Add(AddI(3, 1, 5))
	b.Br(3, c.ID(), y.ID())
	c.Add(Emit(3))
	c.Jmp(exit.ID())
	y.Add(Emit(2))
	y.Jmp(exit.ID())
	exit.Ret(0)
	return bd.Finish()
}

// loopProg builds: entry -> head; head -> body or exit; body -> head.
func loopProg(t *testing.T) *Program {
	t.Helper()
	bd := NewBuilder("loop", 16)
	pb := bd.Proc("main")
	entry, head, body, exit := pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock()
	entry.Add(MovI(1, 0))
	entry.Jmp(head.ID())
	head.Add(CmpLTI(2, 1, 10))
	head.Br(2, body.ID(), exit.ID())
	body.Add(AddI(1, 1, 1))
	body.Jmp(head.ID())
	exit.Ret(1)
	return bd.Finish()
}

func TestBuilderProducesValidProgram(t *testing.T) {
	prog := diamond(t)
	if err := Verify(prog); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if got := len(prog.Procs); got != 1 {
		t.Fatalf("procs = %d, want 1", got)
	}
	if prog.Proc(prog.Main).Name != "main" {
		t.Fatalf("main proc is %q", prog.Proc(prog.Main).Name)
	}
}

func TestSuccsAndPreds(t *testing.T) {
	prog := diamond(t)
	cfg := NewCFG(prog.Proc(0))
	wantSuccs := map[BlockID][]BlockID{
		0: {2, 1}, // A: taken B, fallthru X
		1: {2},
		2: {3, 4},
		3: {5},
		4: {5},
		5: nil,
	}
	for b, want := range wantSuccs {
		got := cfg.Succs(b)
		if len(got) != len(want) {
			t.Fatalf("succs(b%d) = %v, want %v", b, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("succs(b%d) = %v, want %v", b, got, want)
			}
		}
	}
	if got := cfg.Preds(2); len(got) != 2 {
		t.Fatalf("preds(b2) = %v, want 2 predecessors", got)
	}
	if got := cfg.Preds(5); len(got) != 2 {
		t.Fatalf("preds(b5) = %v, want 2 predecessors", got)
	}
}

func TestDominators(t *testing.T) {
	prog := diamond(t)
	cfg := NewCFG(prog.Proc(0))
	cases := []struct {
		a, b BlockID
		want bool
	}{
		{0, 0, true},
		{0, 5, true},
		{0, 2, true},
		{2, 3, true},
		{2, 4, true},
		{1, 2, false}, // X does not dominate B (A reaches B directly)
		{3, 5, false},
		{4, 5, false},
		{2, 5, true}, // all paths to exit pass through B
	}
	for _, c := range cases {
		if got := cfg.Dominates(c.a, c.b); got != c.want {
			t.Errorf("Dominates(b%d, b%d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestBackEdgesAndLoops(t *testing.T) {
	prog := loopProg(t)
	cfg := NewCFG(prog.Proc(0))
	if !cfg.IsBackEdge(2, 1) {
		t.Fatal("body->head should be a back edge")
	}
	if cfg.IsBackEdge(0, 1) {
		t.Fatal("entry->head must not be a back edge")
	}
}

func TestSelfLoopIsBackEdge(t *testing.T) {
	bd := NewBuilder("self", 4)
	pb := bd.Proc("main")
	entry, lp, exit := pb.NewBlock(), pb.NewBlock(), pb.NewBlock()
	entry.Jmp(lp.ID())
	lp.Add(AddI(1, 1, 1), CmpLTI(2, 1, 5))
	lp.Br(2, lp.ID(), exit.ID())
	exit.Ret(1)
	prog := bd.Finish()
	cfg := NewCFG(prog.Proc(0))
	if !cfg.IsBackEdge(1, 1) {
		t.Fatal("self edge should be a back edge")
	}
}

func TestRPOStartsAtEntryAndCoversReachable(t *testing.T) {
	prog := diamond(t)
	cfg := NewCFG(prog.Proc(0))
	rpo := cfg.RPO()
	if len(rpo) != 6 {
		t.Fatalf("rpo covers %d blocks, want 6", len(rpo))
	}
	if rpo[0] != 0 {
		t.Fatalf("rpo[0] = b%d, want entry b0", rpo[0])
	}
	// Every edge that is not a back edge must go forward in RPO.
	pos := map[BlockID]int{}
	for i, b := range rpo {
		pos[b] = i
	}
	for _, b := range prog.Proc(0).Blocks {
		for _, s := range b.Succs() {
			if !cfg.IsBackEdge(b.ID, s) && pos[s] <= pos[b.ID] {
				t.Errorf("forward edge b%d->b%d goes backward in RPO", b.ID, s)
			}
		}
	}
}

func TestUnreachableBlockHandled(t *testing.T) {
	bd := NewBuilder("unreach", 4)
	pb := bd.Proc("main")
	entry, dead, exit := pb.NewBlock(), pb.NewBlock(), pb.NewBlock()
	entry.Jmp(exit.ID())
	dead.Jmp(exit.ID())
	exit.Ret(0)
	prog := bd.Finish()
	cfg := NewCFG(prog.Proc(0))
	if cfg.Reachable(dead.ID()) {
		t.Fatal("dead block must be unreachable")
	}
	if cfg.Dominates(0, dead.ID()) {
		t.Fatal("nothing dominates an unreachable block")
	}
	_ = entry
}

func TestVerifyCatchesErrors(t *testing.T) {
	mk := func(mutate func(*Program)) error {
		prog := diamond(t)
		mutate(prog)
		return Verify(prog)
	}
	cases := []struct {
		name   string
		mutate func(*Program)
	}{
		{"empty block", func(p *Program) { p.Procs[0].Blocks[1].Instrs = nil }},
		{"missing terminator", func(p *Program) {
			b := p.Procs[0].Blocks[1]
			b.Instrs = []Instr{MovI(1, 1)}
		}},
		{"terminator mid-block", func(p *Program) {
			b := p.Procs[0].Blocks[1]
			b.Instrs = append([]Instr{Jmp(2)}, b.Instrs...)
		}},
		{"bad target", func(p *Program) {
			p.Procs[0].Blocks[1].Terminator().Targets[0] = 99
		}},
		{"bad callee", func(p *Program) {
			b := p.Procs[0].Blocks[1]
			b.Instrs[len(b.Instrs)-1] = Call(0, 42, 2)
		}},
		{"data out of range", func(p *Program) {
			p.Data = append(p.Data, DataSeg{Addr: p.MemSize, Values: []int64{1}})
		}},
		{"br wrong arity", func(p *Program) {
			p.Procs[0].Blocks[0].Terminator().Targets = []BlockID{2}
		}},
	}
	for _, c := range cases {
		if err := mk(c.mutate); err == nil {
			t.Errorf("%s: Verify accepted invalid program", c.name)
		}
	}
}

func TestVerifyScheduleAnnotations(t *testing.T) {
	prog := diamond(t)
	b := prog.Procs[0].Blocks[0]
	b.Cycles = []int32{0, 0}
	b.Span = 1
	if err := Verify(prog); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	b.Cycles = []int32{1, 0}
	if err := Verify(prog); err == nil {
		t.Fatal("non-monotone schedule accepted")
	}
	b.Cycles = []int32{0, 3}
	b.Span = 3
	if err := Verify(prog); err == nil {
		t.Fatal("span not covering last cycle accepted")
	}
}

func TestUsesAndDefs(t *testing.T) {
	cases := []struct {
		ins     Instr
		uses    []Reg
		defines bool
	}{
		{MovI(3, 7), nil, true},
		{Mov(3, 4), []Reg{4}, true},
		{Add(1, 2, 3), []Reg{2, 3}, true},
		{AddI(1, 2, 5), []Reg{2}, true},
		{Load(1, 2, 0), []Reg{2}, true},
		{Store(2, 0, 3), []Reg{2, 3}, false},
		{Emit(4), []Reg{4}, false},
		{Br(5, 0, 1), []Reg{5}, false},
		{Jmp(0), nil, false},
		{Ret(0), []Reg{0}, false},
		{Call(1, 0, 0, 2, 3), []Reg{2, 3}, true},
		{Switch(6, 0, 1), []Reg{6}, false},
	}
	for _, c := range cases {
		got := c.ins.Uses(nil)
		if len(got) != len(c.uses) {
			t.Errorf("%s: uses = %v, want %v", c.ins.Op, got, c.uses)
			continue
		}
		for i := range got {
			if got[i] != c.uses[i] {
				t.Errorf("%s: uses = %v, want %v", c.ins.Op, got, c.uses)
			}
		}
		if c.ins.HasDst() != c.defines {
			t.Errorf("%s: HasDst = %v, want %v", c.ins.Op, c.ins.HasDst(), c.defines)
		}
	}
}

func TestCanSpeculate(t *testing.T) {
	if !Load(1, 2, 0).CanSpeculate() {
		t.Error("loads must be speculatable (non-excepting variants exist)")
	}
	if Store(1, 0, 2).CanSpeculate() {
		t.Error("stores must not speculate")
	}
	if Emit(1).CanSpeculate() {
		t.Error("emits must not speculate")
	}
	if Br(1, 0, 0).CanSpeculate() {
		t.Error("branches must not speculate")
	}
	if !Add(1, 2, 3).CanSpeculate() {
		t.Error("ALU ops must speculate")
	}
}

func TestCloneProgramIsDeep(t *testing.T) {
	prog := diamond(t)
	cp := CloneProgram(prog)
	cp.Procs[0].Blocks[0].Instrs[0].Imm = 999
	cp.Procs[0].Blocks[0].Terminator().Targets[0] = 5
	if prog.Procs[0].Blocks[0].Instrs[0].Imm == 999 {
		t.Fatal("instruction mutation leaked into original")
	}
	if prog.Procs[0].Blocks[0].Terminator().Targets[0] == 5 {
		t.Fatal("target mutation leaked into original")
	}
	cp.Data = append(cp.Data, DataSeg{})
	if len(prog.Data) == len(cp.Data) {
		t.Fatal("data slice shared")
	}
}

func TestCloneBlockTracksOrigin(t *testing.T) {
	prog := diamond(t)
	p := prog.Proc(0)
	orig := p.Blocks[2]
	c1 := CloneBlockInto(p, orig)
	if c1.Origin != orig.ID {
		t.Fatalf("first-generation clone origin = b%d, want b%d", c1.Origin, orig.ID)
	}
	c2 := CloneBlockInto(p, c1)
	if c2.Origin != orig.ID {
		t.Fatalf("second-generation clone origin = b%d, want original b%d", c2.Origin, orig.ID)
	}
	c1.Instrs[0].Imm = 123
	if orig.Instrs[0].Imm == 123 {
		t.Fatal("clone shares instruction storage with original")
	}
}

func TestRedirectEdges(t *testing.T) {
	prog := diamond(t)
	p := prog.Proc(0)
	n := RedirectEdges(p.Blocks[0], 2, 3)
	if n != 1 {
		t.Fatalf("redirected %d edges, want 1", n)
	}
	if p.Blocks[0].Terminator().Targets[0] != 3 {
		t.Fatal("edge not redirected")
	}
}

func TestNewVirtReg(t *testing.T) {
	p := &Proc{}
	r1, r2 := p.NewVirtReg(), p.NewVirtReg()
	if !r1.IsVirtual() || !r2.IsVirtual() {
		t.Fatal("NewVirtReg must return virtual registers")
	}
	if r1 == r2 {
		t.Fatal("NewVirtReg returned duplicate registers")
	}
	if r1.String() != "v0" {
		t.Fatalf("first virtual reg prints as %q, want v0", r1.String())
	}
}

func TestDumpContainsStructure(t *testing.T) {
	prog := diamond(t)
	prog.Procs[0].Blocks[1].Origin = 2 // pretend it's a copy
	text := prog.Dump()
	for _, want := range []string{"program diamond", "proc main", "b0", "br r1, b2, b1", "(copy of b2)", "ret r0"} {
		if !strings.Contains(text, want) {
			t.Errorf("dump missing %q:\n%s", want, text)
		}
	}
}

func TestInstrStringForms(t *testing.T) {
	cases := map[string]Instr{
		"movi r1, 7":                   MovI(1, 7),
		"add r1, r2, r3":               Add(1, 2, 3),
		"load r1, [r2+4]":              Load(1, 2, 4),
		"store [r2+4], r3":             Store(2, 4, 3),
		"br r1, b0, b1":                Br(1, 0, 1),
		"switch r1, b0 b1 b2":          Switch(1, 0, 1, 2),
		"ret r0":                       Ret(0),
		"emit r5":                      Emit(5),
		"cmplti r1, r2, 3":             CmpLTI(1, 2, 3),
		"call r1, proc2(r3, r4) -> b5": Call(1, 2, 5, 3, 4),
	}
	for want, ins := range cases {
		if got := ins.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	spec := Load(1, 2, 0)
	spec.Spec = true
	if got := spec.String(); !strings.HasPrefix(got, "load.s") {
		t.Errorf("speculative load prints as %q", got)
	}
}

func TestMaxRegAndCounts(t *testing.T) {
	prog := diamond(t)
	p := prog.Proc(0)
	if got := p.MaxReg(); got != PhysRegs-1 {
		t.Fatalf("MaxReg = %d, want %d (small programs still cover the file)", got, PhysRegs-1)
	}
	v := p.NewVirtReg()
	p.Blocks[0].Instrs[0].Dst = v
	if got := p.MaxReg(); got != v {
		t.Fatalf("MaxReg = %d, want %d", got, v)
	}
	if prog.NumInstrs() != 11 {
		t.Fatalf("NumInstrs = %d, want 11", prog.NumInstrs())
	}
	if prog.CodeBytes() != 44 {
		t.Fatalf("CodeBytes = %d, want 44", prog.CodeBytes())
	}
}
