package ir

import (
	"testing"
)

// FuzzFingerprint checks the two properties the pipeline cache rests
// on: cloning a program never changes its fingerprint, and any single
// structural mutation does, reordering data segments included.
//
// The fuzz input is a mutation script: byte 0 selects the mutation
// kind, the remaining bytes parameterize it (which proc/block/instr,
// what delta). Every script is applied to a fresh clone of the same
// base program, so the fuzzer explores the mutation space rather than
// unconstrained IR.
func FuzzFingerprint(f *testing.F) {
	for kind := byte(0); kind < fuzzMutationKinds; kind++ {
		f.Add([]byte{kind})
		f.Add([]byte{kind, 1, 2, 3})
		f.Add([]byte{kind, 0xff, 0x80, 0x7f, 5})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		base := fpBaseProgram()
		h0 := Fingerprint(base)
		if Fingerprint(CloneProgram(base)) != h0 {
			t.Fatal("cloning the base program changed its fingerprint")
		}

		mut := CloneProgram(base)
		if !applyFuzzMutation(mut, data) {
			return
		}
		h1 := Fingerprint(mut)
		if h1 == h0 {
			t.Fatalf("structural mutation %d did not change the digest", data[0]%fuzzMutationKinds)
		}

		// Same script on a fresh clone must land on the same digest:
		// the hash is a pure function of structure.
		mut2 := CloneProgram(base)
		applyFuzzMutation(mut2, data)
		if Fingerprint(mut2) != h1 {
			t.Fatal("fingerprint is not deterministic across identical mutations")
		}
	})
}

const fuzzMutationKinds = 10

// fuzzCursor doles out script bytes, yielding zero once exhausted so
// every script prefix is a valid (if boring) parameterization.
type fuzzCursor struct {
	data []byte
	pos  int
}

func (c *fuzzCursor) next() byte {
	if c.pos >= len(c.data) {
		return 0
	}
	b := c.data[c.pos]
	c.pos++
	return b
}

// applyFuzzMutation mutates prog per the script and reports whether
// anything changed.
func applyFuzzMutation(prog *Program, data []byte) bool {
	if len(data) == 0 {
		return false
	}
	cur := &fuzzCursor{data: data[1:]}
	pr := prog.Procs[1] // "main": the structurally rich proc
	pick := func(n int) int {
		if n <= 0 {
			return 0
		}
		return int(cur.next()) % n
	}
	switch data[0] % fuzzMutationKinds {
	case 0: // swap the operands of a three-address instruction
		ins := &pr.Blocks[0].Instrs[1] // Load: Src1 used, Src2 zero
		ins.Src1, ins.Src2 = ins.Src2, ins.Src1
		return true
	case 1: // flip a terminator target
		b := pr.Blocks[pick(len(pr.Blocks))]
		term := b.Terminator()
		if term == nil || len(term.Targets) == 0 {
			return false
		}
		i := pick(len(term.Targets))
		term.Targets[i] += BlockID(1 + pick(7))
		return true
	case 2: // edit a data byte
		if len(prog.Data) == 0 {
			return false
		}
		seg := &prog.Data[pick(len(prog.Data))]
		if len(seg.Values) == 0 {
			return false
		}
		seg.Values[pick(len(seg.Values))] ^= 1 << (cur.next() % 63)
		return true
	case 3: // change an immediate
		b := pr.Blocks[pick(len(pr.Blocks))]
		if len(b.Instrs) == 0 {
			return false
		}
		b.Instrs[pick(len(b.Instrs))].Imm += int64(1 + pick(255))
		return true
	case 4: // toggle the speculative flag
		ins := &pr.Blocks[0].Instrs[pick(len(pr.Blocks[0].Instrs))]
		ins.Spec = !ins.Spec
		return true
	case 5: // replace an opcode with a different one
		ins := &pr.Blocks[0].Instrs[0] // MovI
		if ins.Op == OpNop {
			ins.Op = OpMov
		} else {
			ins.Op = OpNop
		}
		return true
	case 6: // append an instruction
		b := pr.Blocks[pick(len(pr.Blocks))]
		n := len(b.Instrs)
		b.Instrs = append(b.Instrs[:n-1:n-1], Nop(), b.Instrs[n-1])
		return true
	case 7: // swap two data segments: declaration order is identity
		i, j := pick(len(prog.Data)), pick(len(prog.Data))
		if i == j {
			// The base program's segments are pairwise distinct, so
			// only a self-swap is a no-op.
			return false
		}
		prog.Data[i], prog.Data[j] = prog.Data[j], prog.Data[i]
		return true
	case 8: // grow the memory image
		prog.MemSize += int64(1 + pick(255))
		return true
	default: // toggle schedule metadata on the annotated block
		b := pr.Blocks[3]
		if b.Cycles == nil {
			b.Cycles = make([]int32, len(b.Instrs))
		} else {
			b.Cycles = nil
		}
		return true
	}
}
