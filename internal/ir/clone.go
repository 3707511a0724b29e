package ir

import "slices"

// CloneBlockInto appends a copy of src to p and returns the new block.
// The clone's Origin is src's Origin, so origin chains always point at
// the pristine original block regardless of how many generations of
// duplication formation performs. Schedule annotations are dropped:
// clones are produced before compaction.
func CloneBlockInto(p *Proc, src *Block) *Block {
	nb := p.AddBlock(src.Origin)
	nb.Instrs = make([]Instr, len(src.Instrs))
	for i := range src.Instrs {
		nb.Instrs[i] = src.Instrs[i].Clone()
	}
	return nb
}

// CloneProgram deep-copies a whole program, so that destructive passes
// can run while the original remains available for differential
// testing.
func CloneProgram(prog *Program) *Program {
	out := &Program{
		Name:    prog.Name,
		Main:    prog.Main,
		MemSize: prog.MemSize,
	}
	out.Data = make([]DataSeg, len(prog.Data))
	for i, seg := range prog.Data {
		out.Data[i] = DataSeg{Addr: seg.Addr, Values: append([]int64(nil), seg.Values...)}
	}
	out.Procs = make([]*Proc, len(prog.Procs))
	for i, p := range prog.Procs {
		out.Procs[i] = CloneProc(p)
	}
	return out
}

// CloneProc deep-copies one procedure: blocks, instructions, operand
// lists and annotations, and the virtual-register cursor. The copy's
// blocks, instructions, targets and arguments each live in one backing
// array; every slice handed out is capped at its length, so appending
// to one reallocates rather than overwriting its neighbour.
func CloneProc(p *Proc) *Proc {
	var nInstrs, nTargets, nArgs int
	for _, b := range p.Blocks {
		nInstrs += len(b.Instrs)
		for i := range b.Instrs {
			nTargets += len(b.Instrs[i].Targets)
			nArgs += len(b.Instrs[i].Args)
		}
	}
	blocks := make([]Block, len(p.Blocks))
	instrs := make([]Instr, 0, nInstrs)
	targets := make([]BlockID, 0, nTargets)
	args := make([]Reg, 0, nArgs)
	np := &Proc{ID: p.ID, Name: p.Name, nextVirt: p.nextVirt, Blocks: make([]*Block, len(p.Blocks))}
	for j, b := range p.Blocks {
		nb := &blocks[j]
		*nb = Block{
			ID:      b.ID,
			Origin:  b.Origin,
			SBID:    b.SBID,
			SBIndex: b.SBIndex,
			SBSize:  b.SBSize,
			Span:    b.Span,
			Addr:    b.Addr,
		}
		if b.ExitUnits != nil {
			nb.ExitUnits = append([]int32(nil), b.ExitUnits...)
		}
		if b.Units != nil {
			nb.Units = append([]int32(nil), b.Units...)
		}
		if b.UnitOrigins != nil {
			nb.UnitOrigins = append([]BlockID(nil), b.UnitOrigins...)
		}
		if b.Cycles != nil {
			nb.Cycles = append([]int32(nil), b.Cycles...)
		}
		start := len(instrs)
		for k := range b.Instrs {
			ins := b.Instrs[k]
			// As Instr.Clone: empty operand lists become nil.
			ins.Targets, ins.Args = nil, nil
			if t := b.Instrs[k].Targets; len(t) > 0 {
				targets = append(targets, t...)
				ins.Targets = targets[len(targets)-len(t) : len(targets) : len(targets)]
			}
			if a := b.Instrs[k].Args; len(a) > 0 {
				args = append(args, a...)
				ins.Args = args[len(args)-len(a) : len(args) : len(args)]
			}
			instrs = append(instrs, ins)
		}
		nb.Instrs = instrs[start:len(instrs):len(instrs)]
		np.Blocks[j] = nb
	}
	return np
}

// ShareProc copies only p's block headers: the copy has its own Proc
// and Block structs, so a pass that writes header fields (layout's
// Addr) writes them into the copy alone, but it shares p's instruction
// and annotation slices. Neither side may write those slices
// afterwards.
func ShareProc(p *Proc) *Proc {
	np := &Proc{ID: p.ID, Name: p.Name, nextVirt: p.nextVirt}
	np.Blocks = make([]*Block, len(p.Blocks))
	bs := make([]Block, len(p.Blocks))
	for j, b := range p.Blocks {
		bs[j] = *b
		np.Blocks[j] = &bs[j]
	}
	return np
}

// ProcEqual reports whether a and b agree in every field the codec
// writes for a procedure (its id, name and blocks in order, and every
// block's instructions and annotations, nil and empty annotation lists
// told apart as the codec tells them apart) and in the virtual-register
// cursor, which the codec does not write but renaming allocates from.
// Two procedures it calls equal are interchangeable inputs to any pass
// that reads nothing outside the procedure.
func ProcEqual(a, b *Proc) bool {
	if a.ID != b.ID || a.Name != b.Name || a.nextVirt != b.nextVirt || len(a.Blocks) != len(b.Blocks) {
		return false
	}
	for i, x := range a.Blocks {
		if !blockEqual(x, b.Blocks[i]) {
			return false
		}
	}
	return true
}

func blockEqual(x, y *Block) bool {
	if x.ID != y.ID || x.Origin != y.Origin || x.SBID != y.SBID || x.SBIndex != y.SBIndex ||
		x.SBSize != y.SBSize || x.Span != y.Span || x.Addr != y.Addr || len(x.Instrs) != len(y.Instrs) {
		return false
	}
	if !optEqual(x.ExitUnits, y.ExitUnits) || !optEqual(x.Units, y.Units) ||
		!optEqual(x.UnitOrigins, y.UnitOrigins) || !optEqual(x.Cycles, y.Cycles) {
		return false
	}
	for i := range x.Instrs {
		p, q := &x.Instrs[i], &y.Instrs[i]
		if p.Op != q.Op || p.Dst != q.Dst || p.Src1 != q.Src1 || p.Src2 != q.Src2 || p.Imm != q.Imm ||
			p.Spec != q.Spec || p.Callee != q.Callee || !slices.Equal(p.Targets, q.Targets) || !slices.Equal(p.Args, q.Args) {
			return false
		}
	}
	return true
}

// optEqual compares two optional annotation lists the way the codec
// encodes them: presence, then elements.
func optEqual[T ~int32](a, b []T) bool { return (a == nil) == (b == nil) && slices.Equal(a, b) }

// RedirectEdges rewrites every occurrence of target old in b's
// terminator to new. It returns the number of rewritten targets.
func RedirectEdges(b *Block, old, new BlockID) int {
	t := b.Terminator()
	n := 0
	for i, tgt := range t.Targets {
		if tgt == old {
			t.Targets[i] = new
			n++
		}
	}
	return n
}
