// Package ir defines the compiler intermediate representation used
// throughout pathsched: a conventional three-address, register-based IR
// organized into basic blocks, procedures, and whole programs, together
// with the control-flow analyses (dominators, back edges, natural
// loops) that superblock formation depends on.
//
// The IR deliberately mirrors the Alpha-derived machine model of Young
// and Smith (MICRO-31, 1998): simple integer operations, loads and
// stores against a flat word-addressed memory, two-way conditional
// branches, multiway switches, calls, and returns. Every basic block
// ends in an explicit terminator; there is no implicit fallthrough, so
// the CFG is fully described by instruction operands and blocks can be
// reordered freely by layout.
package ir

import (
	"fmt"
	"slices"
)

// Reg names an integer register. Registers 0..PhysRegs-1 are physical;
// anything at or above VirtBase is a virtual register introduced by
// renaming and later mapped back down by register allocation.
type Reg int32

// PhysRegs is the size of the architected integer register file
// (the paper's experimental machine has 128 integer registers).
const PhysRegs = 128

// VirtBase is the first virtual register number.
const VirtBase Reg = PhysRegs

// IsVirtual reports whether r is a virtual (pre-allocation) register.
func (r Reg) IsVirtual() bool { return r >= VirtBase }

func (r Reg) String() string {
	if r.IsVirtual() {
		return fmt.Sprintf("v%d", int32(r-VirtBase))
	}
	return fmt.Sprintf("r%d", int32(r))
}

// Conventional register assignments used by the call protocol.
const (
	RegRet  Reg = 0 // return value lives in r0
	RegArg0 Reg = 1 // first argument in r1, then r2, ...
	MaxArgs     = 7 // r1..r7 carry arguments
)

// BlockID identifies a basic block within its procedure.
type BlockID int32

// NoBlock is the nil block id.
const NoBlock BlockID = -1

// ProcID identifies a procedure within a program.
type ProcID int32

// Opcode enumerates IR operations.
type Opcode uint8

// The instruction set. Register-register forms take Src1 and Src2;
// register-immediate forms take Src1 and Imm.
const (
	OpNop Opcode = iota

	// Data movement.
	OpMovI // Dst = Imm
	OpMov  // Dst = Src1

	// Arithmetic and logic, register-register.
	OpAdd // Dst = Src1 + Src2
	OpSub // Dst = Src1 - Src2
	OpMul // Dst = Src1 * Src2
	OpAnd // Dst = Src1 & Src2
	OpOr  // Dst = Src1 | Src2
	OpXor // Dst = Src1 ^ Src2
	OpShl // Dst = Src1 << (Src2 & 63)
	OpShr // Dst = Src1 >> (Src2 & 63) (arithmetic)

	// Arithmetic and logic, register-immediate.
	OpAddI // Dst = Src1 + Imm
	OpMulI // Dst = Src1 * Imm
	OpAndI // Dst = Src1 & Imm
	OpOrI  // Dst = Src1 | Imm
	OpXorI // Dst = Src1 ^ Imm
	OpShlI // Dst = Src1 << (Imm & 63)
	OpShrI // Dst = Src1 >> (Imm & 63)

	// Comparisons produce 0 or 1.
	OpCmpEQ // Dst = Src1 == Src2
	OpCmpNE // Dst = Src1 != Src2
	OpCmpLT // Dst = Src1 < Src2
	OpCmpLE // Dst = Src1 <= Src2
	OpCmpEQI
	OpCmpNEI
	OpCmpLTI
	OpCmpLEI
	OpCmpGTI
	OpCmpGEI

	// Memory. Addresses index a flat array of 64-bit words.
	OpLoad  // Dst = mem[Src1 + Imm]
	OpStore // mem[Src1 + Imm] = Src2

	// Observable output: appends Src1 to the program's output stream.
	// Used to check semantic equivalence across transformations.
	OpEmit

	// Control flow (terminators).
	OpBr     // if Src1 != 0 goto Targets[0] else goto Targets[1]
	OpJmp    // goto Targets[0]
	OpSwitch // goto Targets[Src1] if in range, else Targets[len-1]
	OpCall   // Dst = Callee(Args...); falls through to Targets[0]
	OpRet    // return Src1

	numOpcodes
)

var opNames = [numOpcodes]string{
	OpNop: "nop", OpMovI: "movi", OpMov: "mov",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpAnd: "and", OpOr: "or",
	OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpAddI: "addi", OpMulI: "muli", OpAndI: "andi", OpOrI: "ori",
	OpXorI: "xori", OpShlI: "shli", OpShrI: "shri",
	OpCmpEQ: "cmpeq", OpCmpNE: "cmpne", OpCmpLT: "cmplt", OpCmpLE: "cmple",
	OpCmpEQI: "cmpeqi", OpCmpNEI: "cmpnei", OpCmpLTI: "cmplti",
	OpCmpLEI: "cmplei", OpCmpGTI: "cmpgti", OpCmpGEI: "cmpgei",
	OpLoad: "load", OpStore: "store", OpEmit: "emit",
	OpBr: "br", OpJmp: "jmp", OpSwitch: "switch", OpCall: "call", OpRet: "ret",
}

func (op Opcode) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Instr is a single IR instruction. The zero value is a nop.
type Instr struct {
	Op   Opcode
	Dst  Reg
	Src1 Reg
	Src2 Reg
	Imm  int64

	// Targets holds branch targets. For OpBr, Targets[0] is the taken
	// target and Targets[1] the not-taken target; for OpJmp and OpCall
	// it holds the single continuation; for OpSwitch it holds the jump
	// table with the final entry acting as the default.
	Targets []BlockID

	// Callee and Args describe OpCall: the callee procedure and the
	// caller registers whose values are copied into the callee's
	// argument registers r1..rN.
	Callee ProcID
	Args   []Reg

	// Spec marks a speculative (non-excepting) variant, produced when
	// the scheduler hoists an instruction above a branch. A speculative
	// load of an unmapped address yields zero instead of faulting.
	Spec bool
}

// Block is a basic block: a straight-line instruction sequence ending
// in exactly one terminator.
type Block struct {
	ID     BlockID
	Instrs []Instr

	// Origin is the block this one was cloned from during superblock
	// formation; for original blocks it equals ID. Origin chains are
	// flattened: every clone points at the *original* block.
	Origin BlockID

	// SBID is the superblock this block belongs to after formation
	// (-1 when formation has not run or the block is not in one), and
	// SBIndex its position within that superblock.
	SBID    int32
	SBIndex int32

	// SBSize, on a merged superblock produced by compaction, is the
	// number of constituent original blocks (≥1); zero elsewhere.
	// ExitUnits, when non-nil, maps each instruction index to the
	// number of constituent blocks completed when control leaves the
	// merged block via that instruction (zero entries default to
	// SBSize). Together they drive the paper's Figure 7 statistics.
	SBSize    int32
	ExitUnits []int32

	// Units, when non-nil, maps each instruction index of a merged
	// superblock to 1 + the index of the constituent original block the
	// instruction came from (so values range over 1..SBSize). It
	// records where each instruction sat *before* compaction moved it,
	// which is what lets the checker decide whether a load ended up
	// hoisted above an earlier unit's exit and must carry Spec. Nil
	// means unscheduled or unknown.
	Units []int32

	// UnitOrigins, when non-nil, maps each constituent unit of a merged
	// superblock (0..SBSize-1) to the id of the *pristine* block the
	// unit was formed from. Unlike Origin — which compaction remaps
	// into the renumbered block space after dead blocks are removed —
	// UnitOrigins is recorded before renumbering and never remapped, so
	// its values stay valid ids into the untransformed input program.
	// It is the formation metadata the translation validator
	// (internal/validate) uses to match each compiled block back to the
	// original trace it implements. Nil means unscheduled.
	UnitOrigins []BlockID

	// Schedule annotations filled in by compaction. Cycles[i] is the
	// machine cycle in which Instrs[i] issues, relative to the start of
	// the block's superblock (for the first block of a superblock) or
	// block. Span is the number of cycles the block contributes when
	// control falls through its end. A nil Cycles means unscheduled:
	// the interpreter then charges one cycle per instruction.
	Cycles []int32
	Span   int32

	// Addr is the byte address of the block's first instruction after
	// layout; instruction i occupies Addr + 4*i .. Addr + 4*i+3.
	Addr int64
}

// Terminator returns the block's final instruction. It panics on an
// empty block; the verifier guarantees blocks are non-empty.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		panic(fmt.Sprintf("ir: block b%d has no instructions", b.ID))
	}
	return &b.Instrs[len(b.Instrs)-1]
}

// Succs returns the block's control-flow successors in a fresh slice,
// deduplicated in first-occurrence order. For ordinary blocks only the
// terminator contributes; merged superblocks also contribute their
// mid-block exit targets. NoBlock continuation slots are skipped.
//
// Duplicates are found by scanning the result itself, which is cheaper
// than any set for the one to three successors of a typical block;
// past succsScanMax successors (a wide switch, a merged superblock's
// exits) a bitset over the ids below succsBitsetIDs takes over.
func (b *Block) Succs() []BlockID {
	var out []BlockID
	var seen []uint64 // bitset of out's ids in [0, succsBitsetIDs), once out is long
	for i := range b.Instrs {
		for _, t := range b.Instrs[i].Targets {
			if t == NoBlock {
				continue
			}
			if seen == nil || t < 0 || t >= succsBitsetIDs {
				if slices.Contains(out, t) {
					continue
				}
			} else if w := int(t) >> 6; w < len(seen) && seen[w]&(1<<(uint(t)&63)) != 0 {
				continue
			}
			out = append(out, t)
			switch {
			case seen != nil:
				seen = markBlock(seen, t)
			case len(out) > succsScanMax:
				for _, s := range out {
					seen = markBlock(seen, s)
				}
			}
		}
	}
	return out
}

// succsScanMax is the successor count up to which Succs deduplicates
// by scanning; succsBitsetIDs bounds the ids its bitset covers (8 KB),
// so a malformed target id cannot make it allocate more.
const (
	succsScanMax   = 32
	succsBitsetIDs = 1 << 16
)

// markBlock sets id's bit in set, growing it as needed; ids outside
// [0, succsBitsetIDs) are left to the scan.
func markBlock(set []uint64, id BlockID) []uint64 {
	if id < 0 || id >= succsBitsetIDs {
		return set
	}
	w := int(id) >> 6
	for len(set) <= w {
		set = append(set, 0)
	}
	set[w] |= 1 << (uint(id) & 63)
	return set
}

// NumInstrs returns the number of instructions in the block.
func (b *Block) NumInstrs() int { return len(b.Instrs) }

// ExitCharge is what one departure from a block through one of its
// instructions adds to a run's counters. It is the one definition of
// an exit's cost: the interpreter charges it for every departure it
// executes, and a measurement replay (internal/profile) for every
// departure it walks.
type ExitCharge struct {
	// Cycles is the schedule's charge: an exit issued in cycle c costs
	// c+1 cycles and falling off the block's end costs its Span
	// (paper §3.2); an unscheduled block costs one cycle per
	// instruction retired.
	Cycles int64
	// Instrs counts the instructions retired, Branches the conditional
	// branches (br, switch) and Calls the calls among them.
	Instrs, Branches, Calls int32
	// Units is the superblock exit credit: the constituent blocks
	// completed when control leaves a merged superblock here (0 outside
	// one).
	Units int32
	// SBEntry and SBSize are 1 and the superblock's size on a block
	// heading a merged superblock, 0 elsewhere. A block entered is
	// departed exactly once, so charging them per exit counts every
	// entry once.
	SBEntry, SBSize int32
}

// AppendExitCharges appends to dst the charge of departing b through
// each of its instructions, in instruction order.
func (b *Block) AppendExitCharges(dst []ExitCharge) []ExitCharge {
	var head ExitCharge
	if b.SBSize > 0 && b.SBIndex == 0 {
		head.SBEntry, head.SBSize = 1, b.SBSize
	}
	for i := range b.Instrs {
		switch b.Instrs[i].Op {
		case OpBr, OpSwitch:
			head.Branches++
		case OpCall:
			head.Calls++
		}
		c := head
		c.Instrs = int32(i + 1)
		c.Cycles = int64(i + 1)
		if b.Cycles != nil {
			c.Cycles = int64(b.Cycles[i]) + 1
			if i == len(b.Instrs)-1 {
				c.Cycles = int64(b.Span)
			}
		}
		if b.SBSize > 0 {
			c.Units = b.SBSize
			if b.ExitUnits != nil && b.ExitUnits[i] > 0 {
				c.Units = b.ExitUnits[i]
			}
		}
		dst = append(dst, c)
	}
	return dst
}

// Proc is a procedure: a list of basic blocks whose first element is
// the unique entry block.
type Proc struct {
	ID     ProcID
	Name   string
	Blocks []*Block

	// nextVirt is the next virtual register to hand out for this proc.
	nextVirt Reg
}

// Entry returns the procedure's entry block.
func (p *Proc) Entry() *Block { return p.Blocks[0] }

// Block returns the block with the given id, or nil.
func (p *Proc) Block(id BlockID) *Block {
	if id < 0 || int(id) >= len(p.Blocks) {
		return nil
	}
	return p.Blocks[id]
}

// NewVirtReg returns a fresh virtual register for this procedure.
func (p *Proc) NewVirtReg() Reg {
	if p.nextVirt < VirtBase {
		p.nextVirt = VirtBase
	}
	r := p.nextVirt
	p.nextVirt++
	return r
}

// MaxReg returns the highest register number mentioned anywhere in the
// procedure (at least PhysRegs-1 so frames always cover the file).
func (p *Proc) MaxReg() Reg {
	max := Reg(PhysRegs - 1)
	for _, b := range p.Blocks {
		for i := range b.Instrs {
			ins := &b.Instrs[i]
			for _, r := range [...]Reg{ins.Dst, ins.Src1, ins.Src2} {
				if r > max {
					max = r
				}
			}
			for _, r := range ins.Args {
				if r > max {
					max = r
				}
			}
		}
	}
	return max
}

// NumInstrs returns the total instruction count of the procedure.
func (p *Proc) NumInstrs() int {
	n := 0
	for _, b := range p.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// AddBlock appends a new empty block to the procedure and returns it.
// origin records which original block the new block is a copy of; pass
// NoBlock for a brand-new block (Origin then points at itself).
func (p *Proc) AddBlock(origin BlockID) *Block {
	b := &Block{ID: BlockID(len(p.Blocks)), Origin: origin, SBID: -1}
	if origin == NoBlock {
		b.Origin = b.ID
	}
	p.Blocks = append(p.Blocks, b)
	return b
}

// DataSeg initializes a run of memory words before execution.
type DataSeg struct {
	Addr   int64
	Values []int64
}

// Program is a whole compilation unit.
type Program struct {
	Name    string
	Procs   []*Proc
	Main    ProcID
	Data    []DataSeg
	MemSize int64 // words of addressable data memory
}

// Proc returns the procedure with the given id, or nil.
func (pr *Program) Proc(id ProcID) *Proc {
	if id < 0 || int(id) >= len(pr.Procs) {
		return nil
	}
	return pr.Procs[id]
}

// ProcByName returns the first procedure with the given name, or nil.
func (pr *Program) ProcByName(name string) *Proc {
	for _, p := range pr.Procs {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// NumInstrs returns the program's total static instruction count.
func (pr *Program) NumInstrs() int {
	n := 0
	for _, p := range pr.Procs {
		n += p.NumInstrs()
	}
	return n
}

// CodeBytes returns the static code size in bytes (4 bytes per
// instruction), the analogue of Table 1's binary-size column.
func (pr *Program) CodeBytes() int64 { return int64(pr.NumInstrs()) * 4 }

// AddProc appends a new empty procedure and returns it.
func (pr *Program) AddProc(name string) *Proc {
	p := &Proc{ID: ProcID(len(pr.Procs)), Name: name}
	pr.Procs = append(pr.Procs, p)
	return p
}
