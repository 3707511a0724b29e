package ir

import (
	"reflect"
	"slices"
	"testing"
)

// annotatedProc returns a two-block procedure with every Proc, Block
// and Instr field set to a non-zero value.
func annotatedProc() *Proc {
	p := &Proc{ID: 3, Name: "f", nextVirt: VirtBase + 7}
	p.Blocks = []*Block{
		{
			ID: 0, Origin: 0, SBID: 1, SBIndex: 0, SBSize: 2, Span: 4, Addr: 64,
			Instrs: []Instr{
				{Op: OpCall, Dst: 1, Src1: 2, Src2: 3, Imm: 9, Targets: []BlockID{1}, Callee: 2, Args: []Reg{4, 5}, Spec: true},
				{Op: OpBr, Src1: 1, Targets: []BlockID{1, 0}},
			},
			ExitUnits:   []int32{1, 2},
			Units:       []int32{1, 2},
			UnitOrigins: []BlockID{0, 1},
			Cycles:      []int32{0, 3},
		},
		{ID: 1, Origin: 1, SBID: 2, Instrs: []Instr{{Op: OpRet, Src1: 1}}, Cycles: []int32{0}, Span: 1},
	}
	return p
}

// TestProcEqualSeesEveryField: changing any one field of a procedure,
// a block or an instruction makes the procedure unequal to the
// original, and (except the virtual-register cursor, which the codec
// does not write) changes its encoding too. The field lists are pinned,
// so a field added to Proc, Block or Instr fails here until ProcEqual
// and this test cover it.
func TestProcEqualSeesEveryField(t *testing.T) {
	b0 := func(p *Proc) *Block { return p.Blocks[0] }
	i0 := func(p *Proc) *Instr { return &p.Blocks[0].Instrs[0] }
	mutations := map[string]map[string]func(*Proc){
		"Proc": {
			"ID":       func(p *Proc) { p.ID++ },
			"Name":     func(p *Proc) { p.Name += "x" },
			"Blocks":   func(p *Proc) { p.Blocks = p.Blocks[:1] },
			"nextVirt": func(p *Proc) { p.NewVirtReg() },
		},
		"Block": {
			"ID":          func(p *Proc) { b0(p).ID++ },
			"Instrs":      func(p *Proc) { b0(p).Instrs = b0(p).Instrs[1:] },
			"Origin":      func(p *Proc) { b0(p).Origin++ },
			"SBID":        func(p *Proc) { b0(p).SBID++ },
			"SBIndex":     func(p *Proc) { b0(p).SBIndex++ },
			"SBSize":      func(p *Proc) { b0(p).SBSize++ },
			"ExitUnits":   func(p *Proc) { b0(p).ExitUnits[1]++ },
			"Units":       func(p *Proc) { b0(p).Units = nil },
			"UnitOrigins": func(p *Proc) { b0(p).UnitOrigins = b0(p).UnitOrigins[:0] },
			"Cycles":      func(p *Proc) { b0(p).Cycles[0]++ },
			"Span":        func(p *Proc) { b0(p).Span++ },
			"Addr":        func(p *Proc) { b0(p).Addr += 4 },
		},
		"Instr": {
			"Op":      func(p *Proc) { i0(p).Op = OpJmp },
			"Dst":     func(p *Proc) { i0(p).Dst++ },
			"Src1":    func(p *Proc) { i0(p).Src1++ },
			"Src2":    func(p *Proc) { i0(p).Src2++ },
			"Imm":     func(p *Proc) { i0(p).Imm++ },
			"Targets": func(p *Proc) { i0(p).Targets[0] = 0 },
			"Callee":  func(p *Proc) { i0(p).Callee++ },
			"Args":    func(p *Proc) { i0(p).Args = i0(p).Args[:1] },
			"Spec":    func(p *Proc) { i0(p).Spec = false },
		},
	}
	for typ, v := range map[string]any{"Proc": Proc{}, "Block": Block{}, "Instr": Instr{}} {
		rt := reflect.TypeOf(v)
		var names []string
		for i := 0; i < rt.NumField(); i++ {
			names = append(names, rt.Field(i).Name)
		}
		for _, n := range names {
			if mutations[typ][n] == nil {
				t.Errorf("%s.%s has no mutation: does ProcEqual compare it?", typ, n)
			}
		}
		if len(names) != len(mutations[typ]) {
			t.Errorf("%s has fields %v, the test mutates %d", typ, names, len(mutations[typ]))
		}
	}

	base := annotatedProc()
	encode := func(p *Proc) []byte {
		return EncodeProgram(&Program{Procs: []*Proc{p}})
	}
	if !ProcEqual(base, CloneProc(base)) || !ProcEqual(base, ShareProc(base)) {
		t.Fatal("a procedure is not equal to its copies")
	}
	for typ, ms := range mutations {
		for name, mutate := range ms {
			q := CloneProc(base)
			mutate(q)
			if ProcEqual(base, q) || ProcEqual(q, base) {
				t.Errorf("changing %s.%s leaves the procedure equal", typ, name)
			}
			if sameBytes := slices.Equal(encode(base), encode(q)); sameBytes != (name == "nextVirt") {
				t.Errorf("changing %s.%s: codec bytes equal = %v", typ, name, sameBytes)
			}
		}
	}

	// Operand lists are compared as the codec writes them: nil and
	// empty are one encoding for Targets and Args, two for the
	// annotations.
	q := CloneProc(base)
	q.Blocks[1].Instrs[0].Targets = []BlockID{}
	if !ProcEqual(base, q) {
		t.Error("nil and empty Targets differ")
	}
	q.Blocks[1].Units = []int32{}
	if ProcEqual(base, q) {
		t.Error("nil and empty Units are equal")
	}
}

// TestShareProcCopiesOnlyHeaders: a share writes its own block headers
// (layout's Addr) and reads the original's instruction slices.
func TestShareProcCopiesOnlyHeaders(t *testing.T) {
	p := annotatedProc()
	s := ShareProc(p)
	s.Blocks[0].Addr = 1 << 20
	if p.Blocks[0].Addr == 1<<20 {
		t.Fatal("a share's header write reached the original")
	}
	if &s.Blocks[0].Instrs[0] != &p.Blocks[0].Instrs[0] || &s.Blocks[0].Cycles[0] != &p.Blocks[0].Cycles[0] {
		t.Fatal("a share copied the instruction or annotation slices")
	}
	if s.nextVirt != p.nextVirt {
		t.Fatal("a share lost the virtual-register cursor")
	}
}

// TestCloneProcIsDeep: a clone shares no slice with its original.
func TestCloneProcIsDeep(t *testing.T) {
	p := annotatedProc()
	c := CloneProc(p)
	c.Blocks[0].Instrs[0].Targets[0] = 0
	c.Blocks[0].Instrs[0].Args[0] = 9
	c.Blocks[0].Cycles[1] = 9
	c.Blocks[0].UnitOrigins[0] = 1
	if !ProcEqual(p, annotatedProc()) {
		t.Fatal("a clone's writes reached the original")
	}
}
