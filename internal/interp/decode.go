package interp

import (
	"errors"
	"fmt"

	"pathsched/internal/ir"
)

// This file implements the decode half of the pre-decoded execution
// engine. A program is decoded into flat, cache-resident per-procedure
// arrays:
//
//   - every block's instructions live in one contiguous code array,
//     addressed by a dense [lo,hi) index range per block;
//   - branch targets are resolved at decode time into specialized
//     opcodes (a mid-block exit branch whose fall-through slot is
//     ir.NoBlock becomes its own opcode, so the hot loop never
//     re-tests continuation slots);
//   - all per-departure accounting — the cycle charge, superblock exit
//     units, and the DynBranches/Calls credit for the instructions a
//     departure retires (which the reference engine recomputes or
//     increments instruction by instruction) — is one ir.ExitCharge
//     per code index, so the hot loop touches no counters;
//   - call argument registers, call descriptors and switch jump tables
//     are flattened into per-procedure pools;
//   - registers are renumbered into dense frame slots (frameSlots), so
//     an activation zeroes only the slots its procedure names instead
//     of the seed engine's MaxReg+1 ≥ 128 registers.
//
// The execution half lives in exec.go.

// dop is a decoded opcode. ALU/memory ops map 1:1 from ir.Opcode;
// control ops are specialized by which continuation slots were
// resolved to ir.NoBlock at decode time.
type dop uint8

const (
	dNop dop = iota
	dMovI
	dMov
	dAdd
	dSub
	dMul
	dAnd
	dOr
	dXor
	dShl
	dShr
	dAddI
	dMulI
	dAndI
	dOrI
	dXorI
	dShlI
	dShrI
	dCmpEQ
	dCmpNE
	dCmpLT
	dCmpLE
	dCmpEQI
	dCmpNEI
	dCmpLTI
	dCmpLEI
	dCmpGTI
	dCmpGEI
	dLoad
	dLoadSpec // speculative: unmapped address yields 0, never faults
	dStore
	dEmit
	dBr        // both targets are real blocks
	dBrTakenFT // taken slot is NoBlock: condition true falls through
	dBrElseFT  // not-taken slot is NoBlock: condition false falls through
	dBrBothFT  // both slots NoBlock: counts a branch, always falls through
	dJmp
	dSwitch
	dCall   // continuation slot is a real block
	dCallFT // continuation slot is NoBlock: falls through in-block
	dRet
	dBad     // unknown ir.Opcode: reproduces the reference runtime error
	dBadCall // call to an out-of-range or missing proc (imm = raw callee id)
	dFellOff // sentinel appended after every block (imm = block id): the
	// executor is a single flat program-counter loop, and running past a
	// block's last instruction lands here, producing the reference
	// engine's "control fell off end" error.

	// Superinstructions: decoded opcodes that execute two or more ir
	// instructions under one dispatch. Each one was kept because it
	// saves at least 0.5% of the dispatches of some measured mix
	// (training, reference or measurement runs, at suite or 4x input
	// scale; EXPERIMENTS.md, "Interpreter dispatch mix"); the decoder
	// rewrites a body's head slot to the superinstruction and leaves
	// every other slot in place, so exit records, visit counts and the
	// batch stream are untouched and only the dispatches disappear.
	// width reports how many slots one covers.

	// Fused compare+branch: a compare immediately followed by a dBr
	// conditioned on its destination — the closing pattern of nearly
	// every loop block. The fused case reads the packed targets from
	// the branch slot and exits through the branch's own index.
	dCmpEQBr
	dCmpLTBr
	dCmpEQIBr
	dCmpNEIBr
	dCmpLTIBr
	dCmpGEIBr

	// Pair tiles: adjacent instruction pairs — side-exit branches and
	// the copies and arithmetic around them in scheduled superblocks,
	// the compare/jump idioms of unscheduled block tails — tiled
	// greedily left to right. dAndICmpEQIBr consumes a fused
	// compare+branch as its second instruction (three ir instructions,
	// one dispatch). BrFT tiles cover both fall-through branch
	// polarities via the src2 polarity byte (see decodeInstr).
	dBrFTBrFT
	dBrFTMov
	dBrFTCmpEQI
	dMovBrFT
	dAddIBrFT
	dCmpLTIAndI
	dAddIAddI
	dAddIJmp
	dMovIJmp
	dMovJmp
	dAndICmpEQIBr
	dLoadAddI
	dMovMov
	dAndIMov
	dAndIJmp

	// dMovRun executes three or more consecutive moves — the copy
	// bursts trace scheduling packs together — with the run length
	// stashed in the head's unused src2 byte. dMovBrFTMov is a copy
	// straddling a side exit.
	dMovRun
	dMovBrFTMov
)

// tiles maps an adjacent opcode pair to its pair tile.
var tiles = map[[2]dop]dop{
	{dBrTakenFT, dBrTakenFT}: dBrFTBrFT,
	{dBrTakenFT, dBrElseFT}:  dBrFTBrFT,
	{dBrElseFT, dBrTakenFT}:  dBrFTBrFT,
	{dBrElseFT, dBrElseFT}:   dBrFTBrFT,
	{dBrTakenFT, dMov}:       dBrFTMov,
	{dBrElseFT, dMov}:        dBrFTMov,
	{dBrTakenFT, dCmpEQI}:    dBrFTCmpEQI,
	{dBrElseFT, dCmpEQI}:     dBrFTCmpEQI,
	{dMov, dBrTakenFT}:       dMovBrFT,
	{dMov, dBrElseFT}:        dMovBrFT,
	{dAddI, dBrTakenFT}:      dAddIBrFT,
	{dAddI, dBrElseFT}:       dAddIBrFT,
	{dCmpLTI, dAndI}:         dCmpLTIAndI,
	{dAddI, dAddI}:           dAddIAddI,
	{dAddI, dJmp}:            dAddIJmp,
	{dMovI, dJmp}:            dMovIJmp,
	{dMov, dJmp}:             dMovJmp,
	{dAndI, dCmpEQIBr}:       dAndICmpEQIBr,
	{dLoad, dAddI}:           dLoadAddI,
	{dMov, dMov}:             dMovMov,
	{dAndI, dMov}:            dAndIMov,
	{dAndI, dJmp}:            dAndIJmp,
}

// fusedBr maps a compare opcode to its fused compare+branch form, or
// dNop (zero) when the opcode has none.
var fusedBr = [dCmpEQBr]dop{
	dCmpEQ: dCmpEQBr, dCmpLT: dCmpLTBr, dCmpEQI: dCmpEQIBr,
	dCmpNEI: dCmpNEIBr, dCmpLTI: dCmpLTIBr, dCmpGEI: dCmpGEIBr,
}

// width returns how many code slots the instruction at code[k]
// executes under one dispatch: 1 for a plain instruction, more for a
// superinstruction. A pair tile's second slot keeps its own opcode, so
// a tile over a fused compare+branch spans three slots. Every rewrite
// pass steps by width, which keeps each pass off the bodies of the
// superinstructions the earlier passes formed.
func width(code []dinstr, k int) int {
	switch op := code[k].op; {
	case op < dCmpEQBr:
		return 1
	case op <= dCmpGEIBr:
		return 2
	case op == dMovRun:
		return int(code[k].src2)
	case op == dMovBrFTMov:
		return 3
	default: // pair tile
		return 1 + width(code, k+1)
	}
}

// dinstr is one decoded instruction: 16 bytes, four to a cache line,
// no pointers into the ir.Instr it came from. Register operands are
// frame slots (see frameSlots), narrowed to uint8 so the executor can
// index its fixed *[256]int64 frame without bounds checks (a uint8
// cannot reach 256). ALU/memory ops use imm as the literal operand;
// control ops overload it:
//
//	dBr        imm = taken index (low 32) | not-taken index (high 32)
//	dBrTakenFT imm = not-taken block index
//	dBrElseFT  imm = taken block index
//	dJmp       imm = target block index
//	dSwitch    imm = index into dproc.tables
//	dCall(.FT) imm = index into dproc.calls
//	dBad       imm = the raw ir.Opcode, for the error message
type dinstr struct {
	op   dop
	dst  uint8
	src1 uint8
	src2 uint8
	imm  int64
}

// dcall is the cold descriptor of one call site.
type dcall struct {
	callee       int32
	cont         int32 // continuation block index; ir.NoBlock = fall through
	argLo, argHi int32 // slice of dproc.args holding argument registers
}

// dblock is the per-block record: its id and code range, and the
// address the fetch model reads.
type dblock struct {
	id     ir.BlockID
	lo, hi int32
	addr   int64 // byte address of the first instruction (fetch model)
}

// dproc is one decoded procedure.
type dproc struct {
	id       ir.ProcID
	name     string
	missing  bool // Procs slot was nil; calling it errors like the reference
	frameLen int  // frame slots the procedure's registers occupy (≥ 8)
	entry    int32
	blocks   []dblock
	code     []dinstr
	// exits[i], parallel to code, is the charge of leaving a block via
	// code index i: the block's ir.ExitCharge for that instruction, the
	// one definition of an exit's cost, which measurement replay
	// charges too. Every counter a departure implies is a decode-time
	// constant of (block, i), so the executor only tallies how often
	// each exit was taken and the Result is reconstructed at the end of
	// the run as Σ count(i) × exits[i] (dmachine.flushCounts; all
	// Result counters are commutative sums, so deferring them is exact,
	// and error paths abandon the Result either way).
	exits []ir.ExitCharge

	// ranges[j] packs blocks[j]'s code range as lo | hi<<32: the only
	// per-block state the unhooked hot loop needs, eight blocks to a
	// cache line. The full dblock is consulted only on observer, fetch
	// and error paths.
	ranges []int64

	tables [][]int32 // switch jump tables (block index, -1 = fall through)
	calls  []dcall   // call-site descriptors
	args   []uint8   // flattened call argument registers

	// Exit classification for counter-fused edge profiling (see
	// counts.go): every code slot whose execution can produce a CFG
	// edge is resolved at decode time to its destination block set.
	// exitTarget[i] is the single destination block index, or
	// exitNone when slot i either never transfers (straight-line ops,
	// dCallFT, dRet) or has several possible destinations — in which
	// case multiIdx[i] is the slot's row in multiTargets (the distinct
	// destinations, decode order) and counted runs tally a live
	// per-destination counter. Classified from the pristine decoded
	// opcodes, before superinstruction rewriting obscures them; the
	// rewriting passes never move an exit to a different slot, so the
	// classification stays valid for the rewritten code.
	exitTarget   []int32
	multiIdx     []int32
	multiTargets [][]int32
}

// Engine is a program decoded for execution. It is immutable after
// EngineFor returns, so one engine may serve any number of concurrent
// Runs.
type Engine struct {
	prog  *ir.Program
	procs []dproc

	// err is the decode error every run returns: the first procedure
	// that cannot be decoded (see ErrTooManyRegisters).
	err error
}

// EngineFor decodes prog. The program is read, never mutated. The
// engine is a snapshot of prog's code, so an edit made afterwards
// reaches only a later EngineFor; Run decodes on every call, and a
// caller that runs one unchanged program many times can decode it once
// here and reuse the engine.
func EngineFor(prog *ir.Program) *Engine {
	e := &Engine{prog: prog, procs: make([]dproc, len(prog.Procs))}
	for i, p := range prog.Procs {
		if err := decodeProc(&e.procs[i], p); err != nil && e.err == nil {
			e.err = err
		}
	}
	// Callee validation pass: calls to out-of-range or missing procs
	// become dBadCall, so the executor's call fast path needs no bounds
	// or missing checks — the error (identical to the reference's)
	// fires if and when such a call actually executes.
	for i := range e.procs {
		d := &e.procs[i]
		for j := range d.code {
			if op := d.code[j].op; op == dCall || op == dCallFT {
				c := d.calls[d.code[j].imm]
				if c.callee < 0 || int(c.callee) >= len(e.procs) || e.procs[c.callee].missing {
					d.code[j].op = dBadCall
					d.code[j].imm = int64(c.callee)
				}
			}
		}
	}
	return e
}

// ErrTooManyRegisters is the decode error of a procedure that names
// more registers than the decoded frame's 256 slots. Run and
// RunCounted return it wrapped with the procedure and its count.
var ErrTooManyRegisters = errors.New("interp: procedure names more than 256 registers")

// frameSlots assigns one procedure's registers dense frame slots: r0–r7
// (the return and argument registers the call protocol writes) keep
// slots 0–7, and every other register takes the next free slot the
// first time decode meets it. A procedure therefore counts as naming
// r0–r7 plus each other register it mentions.
type frameSlots struct {
	of map[ir.Reg]int
	n  int
}

func (s *frameSlots) slot(r ir.Reg) uint8 {
	if r >= 0 && r <= ir.MaxArgs {
		return uint8(r)
	}
	k, ok := s.of[r]
	if !ok {
		k = s.n
		s.of[r] = k
		s.n++
	}
	// Past slot 255 the value wraps, but decodeProc then fails the
	// procedure, so no run ever executes it.
	return uint8(k)
}

func decodeProc(d *dproc, p *ir.Proc) error {
	if p == nil {
		d.missing = true
		return nil
	}
	d.id, d.name = p.ID, p.Name
	regs := &frameSlots{of: map[ir.Reg]int{}, n: ir.MaxArgs + 1}
	var err error
	if len(p.Blocks) > 0 {
		d.entry = int32(p.Blocks[0].ID)
	}
	total := 0
	for _, b := range p.Blocks {
		total += len(b.Instrs)
	}
	d.blocks = make([]dblock, len(p.Blocks))
	d.code = make([]dinstr, 0, total+len(p.Blocks))
	d.exits = make([]ir.ExitCharge, 0, total+len(p.Blocks))
	d.exitTarget = make([]int32, 0, total+len(p.Blocks))
	d.multiIdx = make([]int32, 0, total+len(p.Blocks))
	d.ranges = make([]int64, len(p.Blocks))
	for j, b := range p.Blocks {
		db := &d.blocks[j]
		db.id = b.ID
		db.lo = int32(len(d.code))
		db.addr = b.Addr
		for i := range b.Instrs {
			// Arguments land in the callee's slots 1–7, which are r1–r7
			// only; the verifier rejects longer lists too.
			if n := len(b.Instrs[i].Args); b.Instrs[i].Op == ir.OpCall && n > ir.MaxArgs && err == nil {
				err = fmt.Errorf("interp: %s/b%d: call passes %d arguments, max %d", p.Name, b.ID, n, ir.MaxArgs)
			}
			d.code = append(d.code, d.decodeInstr(&b.Instrs[i], regs))
		}
		d.exits = b.AppendExitCharges(d.exits)
		db.hi = int32(len(d.code))
		d.ranges[j] = int64(db.lo) | int64(db.hi)<<32
		d.classifyExits(db)
		// Superinstruction passes, in priority order; each steps by
		// width, so it never rewrites a slot inside an earlier pass's
		// superinstruction, and none crosses the block boundary.
		lo, hi := int(db.lo), int(db.hi)
		// Fuse compare+branch pairs.
		for k := lo; k+1 < hi; k += width(d.code, k) {
			if d.code[k+1].op == dBr && d.code[k+1].src1 == d.code[k].dst {
				if f := fusedBr[d.code[k].op]; f != dNop {
					d.code[k].op = f
				}
			}
		}
		// Move runs (before pair tiling, which would break them into
		// pairs): 3 to 255 consecutive moves become one dMovRun.
		for k := lo; k < hi; k += width(d.code, k) {
			n := 0
			for k+n < hi && n < 255 && d.code[k+n].op == dMov {
				n++
			}
			if n >= 3 {
				d.code[k].op = dMovRun
				d.code[k].src2 = uint8(n)
			}
		}
		// Copies straddling a side exit (before pair tiling, which
		// would split them into pairs).
		for k := lo; k+2 < hi; k += width(d.code, k) {
			if br := d.code[k+1].op; d.code[k].op == dMov && (br == dBrTakenFT || br == dBrElseFT) && d.code[k+2].op == dMov {
				d.code[k].op = dMovBrFTMov
			}
		}
		// Greedy left-to-right pair tiling over the plain instructions
		// the passes above left.
		for k := lo; k+1 < hi; k += width(d.code, k) {
			if t, ok := tiles[[2]dop{d.code[k].op, d.code[k+1].op}]; ok {
				d.code[k].op = t
			}
		}
		// A block that is nothing but an unconditional jump — common in
		// the skeletal control flow unscheduled builds execute — is
		// marked with the sign bit of its packed range, and its target
		// replaces the (redundant, always lo+1) hi half. The executor's
		// transfer tail accounts such blocks inline and chains straight
		// to the target without a dispatch.
		if db.hi-db.lo == 1 && d.code[db.lo].op == dJmp {
			// Only with an in-range target: a bad target keeps normal
			// dispatch so it reports the reference engine's error.
			if t := int32(d.code[db.lo].imm); uint32(t) < uint32(len(p.Blocks)) {
				d.ranges[j] = int64(db.lo) | int64(t)<<32 | (-1 << 63)
			}
		}
		// Block terminator: [lo, hi) excludes the sentinel, so it only
		// executes when control runs past the last real instruction.
		d.code = append(d.code, dinstr{op: dFellOff, imm: int64(b.ID)})
		d.exits = append(d.exits, ir.ExitCharge{})
		d.exitTarget = append(d.exitTarget, exitNone)
		d.multiIdx = append(d.multiIdx, -1)
	}
	d.frameLen = regs.n
	if regs.n > 256 {
		return fmt.Errorf("%w: %s names %d", ErrTooManyRegisters, p.Name, regs.n)
	}
	return err
}

// exitNone marks a code slot that never produces a CFG edge (or whose
// destinations live in multiTargets instead — multiIdx distinguishes).
const exitNone int32 = -1

// classifyExits appends the exit classification (see the dproc fields)
// for block db's slots. Must run on the pristine decoded opcodes,
// before the superinstruction rewriting passes.
func (d *dproc) classifyExits(db *dblock) {
	for i := db.lo; i < db.hi; i++ {
		ins := &d.code[i]
		tgt := exitNone
		var multi []int32
		switch ins.op {
		case dJmp, dBrTakenFT, dBrElseFT:
			tgt = int32(ins.imm)
		case dBr:
			t0, t1 := int32(uint32(ins.imm)), int32(uint32(ins.imm>>32))
			if t0 == t1 {
				tgt = t0
			} else {
				multi = []int32{t0, t1}
			}
		case dSwitch:
			// Distinct real destinations in table order (the default
			// entry is the table's last slot; NoBlock slots fall
			// through in-block and produce no edge).
			for _, t := range d.tables[ins.imm] {
				if t == int32(ir.NoBlock) {
					continue
				}
				dup := false
				for _, s := range multi {
					if s == t {
						dup = true
						break
					}
				}
				if !dup {
					multi = append(multi, t)
				}
			}
			if len(multi) == 1 {
				tgt, multi = multi[0], nil
			}
		case dCall:
			// The transfer to the continuation block fires when the
			// call returns; dCallFT falls through in-block (no edge).
			tgt = d.calls[ins.imm].cont
		}
		d.exitTarget = append(d.exitTarget, tgt)
		if multi != nil {
			d.multiIdx = append(d.multiIdx, int32(len(d.multiTargets)))
			d.multiTargets = append(d.multiTargets, multi)
		} else {
			d.multiIdx = append(d.multiIdx, -1)
		}
	}
}

var aluOps = [...]struct {
	src ir.Opcode
	dst dop
}{
	{ir.OpNop, dNop}, {ir.OpMovI, dMovI}, {ir.OpMov, dMov},
	{ir.OpAdd, dAdd}, {ir.OpSub, dSub}, {ir.OpMul, dMul},
	{ir.OpAnd, dAnd}, {ir.OpOr, dOr}, {ir.OpXor, dXor},
	{ir.OpShl, dShl}, {ir.OpShr, dShr},
	{ir.OpAddI, dAddI}, {ir.OpMulI, dMulI}, {ir.OpAndI, dAndI},
	{ir.OpOrI, dOrI}, {ir.OpXorI, dXorI}, {ir.OpShlI, dShlI},
	{ir.OpShrI, dShrI},
	{ir.OpCmpEQ, dCmpEQ}, {ir.OpCmpNE, dCmpNE}, {ir.OpCmpLT, dCmpLT},
	{ir.OpCmpLE, dCmpLE}, {ir.OpCmpEQI, dCmpEQI}, {ir.OpCmpNEI, dCmpNEI},
	{ir.OpCmpLTI, dCmpLTI}, {ir.OpCmpLEI, dCmpLEI}, {ir.OpCmpGTI, dCmpGTI},
	{ir.OpCmpGEI, dCmpGEI},
	{ir.OpStore, dStore}, {ir.OpEmit, dEmit},
}

var aluMap = func() map[ir.Opcode]dop {
	m := make(map[ir.Opcode]dop, len(aluOps))
	for _, e := range aluOps {
		m[e.src] = e.dst
	}
	return m
}()

func (d *dproc) decodeInstr(ins *ir.Instr, regs *frameSlots) dinstr {
	out := dinstr{dst: regs.slot(ins.Dst), src1: regs.slot(ins.Src1), src2: regs.slot(ins.Src2), imm: ins.Imm}
	switch ins.Op {
	case ir.OpLoad:
		if ins.Spec {
			out.op = dLoadSpec
		} else {
			out.op = dLoad
		}
	case ir.OpBr:
		t0, t1 := ins.Targets[0], ins.Targets[1]
		switch {
		case t0 == ir.NoBlock && t1 == ir.NoBlock:
			out.op = dBrBothFT
			out.imm = 0
		case t0 == ir.NoBlock:
			out.op = dBrTakenFT
			out.imm = int64(t1)
			out.src2 = 0 // polarity for pair tiles: jump when condition false
		case t1 == ir.NoBlock:
			out.op = dBrElseFT
			out.imm = int64(t0)
			out.src2 = 1 // polarity for pair tiles: jump when condition true
		default:
			out.op = dBr
			// Both targets in one word; uint32 keeps the low half from
			// sign-extending over the high half.
			out.imm = int64(uint32(t0)) | int64(uint32(t1))<<32
		}
	case ir.OpJmp:
		out.op = dJmp
		out.imm = int64(ins.Targets[0])
	case ir.OpSwitch:
		out.op = dSwitch
		tab := make([]int32, len(ins.Targets))
		for k, t := range ins.Targets {
			tab[k] = int32(t)
		}
		out.imm = int64(len(d.tables))
		d.tables = append(d.tables, tab)
	case ir.OpCall:
		out.op = dCall
		if ins.Targets[0] == ir.NoBlock {
			out.op = dCallFT
		}
		c := dcall{
			callee: int32(ins.Callee),
			cont:   int32(ins.Targets[0]),
			argLo:  int32(len(d.args)),
		}
		for _, a := range ins.Args {
			d.args = append(d.args, regs.slot(a))
		}
		c.argHi = int32(len(d.args))
		out.imm = int64(len(d.calls))
		d.calls = append(d.calls, c)
	case ir.OpRet:
		out.op = dRet
	default:
		if op, ok := aluMap[ins.Op]; ok {
			out.op = op
		} else {
			out.op = dBad
			out.imm = int64(ins.Op)
		}
	}
	return out
}
