package interp

import (
	"fmt"

	"pathsched/internal/ir"
)

// eventObserver is the per-event form of BatchObserver that the seed
// engine delivers: EnterProc at an activation's start, Edge(prev, cur)
// and Block(cur) for each block entered (no Edge for the entry block),
// and ExitProc on return. A batch stream flattened back to these
// events must equal the seed engine's (batch_test.go pins this).
type eventObserver interface {
	EnterProc(p ir.ProcID, entry ir.BlockID)
	ExitProc(p ir.ProcID)
	Edge(p ir.ProcID, from, to ir.BlockID)
	Block(p ir.ProcID, b ir.BlockID)
}

// referenceRun executes prog with the original per-instruction
// switch-walk engine, re-reading the ir.Instr stream on every step.
//
// It is kept verbatim (modulo shared memory-image validation) as the
// executable specification of the interpreter's semantics: the
// pre-decoded engine behind Run must produce byte-identical Results,
// and the differential tests in decode_test.go gate every engine
// change against this implementation. Its frames are MaxReg()+1 wide,
// so it runs any register numbering. export_test.go exposes it to the
// BenchmarkInterpDispatch speedup microbenchmark.
//
// The reference engine has no native batch path: cfg.Batch is fed from
// its per-event stream through a batcher, which uses the same buffer
// capacity and flush points as the decoded engine so the two produce
// identical batch streams.
func referenceRun(prog *ir.Program, cfg Config) (*Result, error) {
	var obs eventObserver
	if cfg.Batch != nil {
		obs = &batcher{bo: cfg.Batch}
	}
	return referenceRunEvents(prog, cfg, obs)
}

// referenceRunEvents is referenceRun delivering the seed engine's
// per-event stream to obs (nil for none); cfg.Batch is ignored.
func referenceRunEvents(prog *ir.Program, cfg Config, obs eventObserver) (*Result, error) {
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = defaultMaxSteps
	}
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = defaultMaxDepth
	}
	mem, err := initMem(prog)
	if err != nil {
		return nil, err
	}
	m := &machine{
		prog: prog,
		cfg:  cfg,
		obs:  obs,
		mem:  mem,
		res:  &Result{},
	}
	ret, err := m.call(prog.Main, nil, 0)
	if err != nil {
		return nil, err
	}
	m.res.Ret = ret
	return m.res, nil
}

type machine struct {
	prog  *ir.Program
	cfg   Config
	obs   eventObserver
	mem   []int64
	res   *Result
	steps int64

	// framePool recycles register files across calls; files are sized
	// per procedure on first use.
	framePool [][]int64
}

func (m *machine) getFrame(size int) []int64 {
	if n := len(m.framePool); n > 0 {
		f := m.framePool[n-1]
		m.framePool = m.framePool[:n-1]
		if cap(f) >= size {
			f = f[:size]
			for i := range f {
				f[i] = 0
			}
			return f
		}
	}
	return make([]int64, size)
}

func (m *machine) putFrame(f []int64) { m.framePool = append(m.framePool, f) }

// call runs one procedure activation and returns its r0.
func (m *machine) call(id ir.ProcID, args []int64, depth int) (int64, error) {
	if depth > m.cfg.MaxDepth {
		return 0, fmt.Errorf("interp: call depth exceeds %d", m.cfg.MaxDepth)
	}
	p := m.prog.Proc(id)
	if p == nil {
		return 0, fmt.Errorf("interp: call to unknown proc %d", id)
	}
	regs := m.getFrame(int(p.MaxReg()) + 1)
	defer m.putFrame(regs)
	for i, v := range args {
		regs[int(ir.RegArg0)+i] = v
	}

	obs := m.obs
	if obs != nil {
		obs.EnterProc(id, p.Entry().ID)
	}

	cur := p.Entry().ID
	prev := ir.NoBlock
	for {
		b := p.Block(cur)
		if b == nil {
			return 0, fmt.Errorf("interp: proc %s: bad block b%d", p.Name, cur)
		}
		if obs != nil {
			if prev != ir.NoBlock {
				obs.Edge(id, prev, cur)
			}
			obs.Block(id, cur)
		}
		m.res.DynBlocks++
		if b.SBSize > 0 && b.SBIndex == 0 {
			m.res.SBEntries++
			m.res.SBSize += int64(b.SBSize)
		}

		next, ret, done, err := m.execBlock(p, b, regs, depth)
		if err != nil {
			return 0, err
		}
		if done {
			if obs != nil {
				obs.ExitProc(id)
			}
			return ret, nil
		}
		prev, cur = cur, next
	}
}

// execBlock runs one (possibly merged) block. It returns the successor
// block, or done=true with the return value when the activation ends.
func (m *machine) execBlock(p *ir.Proc, b *ir.Block, regs []int64, depth int) (next ir.BlockID, ret int64, done bool, err error) {
	sched := b.Cycles != nil
	for i := 0; i < len(b.Instrs); i++ {
		if m.steps >= m.cfg.MaxSteps {
			return 0, 0, false, fmt.Errorf("interp: step limit %d exceeded in %s/b%d", m.cfg.MaxSteps, p.Name, b.ID)
		}
		m.steps++
		m.res.DynInstrs++
		ins := &b.Instrs[i]
		switch ins.Op {
		case ir.OpNop:
		case ir.OpMovI:
			regs[ins.Dst] = ins.Imm
		case ir.OpMov:
			regs[ins.Dst] = regs[ins.Src1]
		case ir.OpAdd:
			regs[ins.Dst] = regs[ins.Src1] + regs[ins.Src2]
		case ir.OpSub:
			regs[ins.Dst] = regs[ins.Src1] - regs[ins.Src2]
		case ir.OpMul:
			regs[ins.Dst] = regs[ins.Src1] * regs[ins.Src2]
		case ir.OpAnd:
			regs[ins.Dst] = regs[ins.Src1] & regs[ins.Src2]
		case ir.OpOr:
			regs[ins.Dst] = regs[ins.Src1] | regs[ins.Src2]
		case ir.OpXor:
			regs[ins.Dst] = regs[ins.Src1] ^ regs[ins.Src2]
		case ir.OpShl:
			regs[ins.Dst] = regs[ins.Src1] << (uint64(regs[ins.Src2]) & 63)
		case ir.OpShr:
			regs[ins.Dst] = regs[ins.Src1] >> (uint64(regs[ins.Src2]) & 63)
		case ir.OpAddI:
			regs[ins.Dst] = regs[ins.Src1] + ins.Imm
		case ir.OpMulI:
			regs[ins.Dst] = regs[ins.Src1] * ins.Imm
		case ir.OpAndI:
			regs[ins.Dst] = regs[ins.Src1] & ins.Imm
		case ir.OpOrI:
			regs[ins.Dst] = regs[ins.Src1] | ins.Imm
		case ir.OpXorI:
			regs[ins.Dst] = regs[ins.Src1] ^ ins.Imm
		case ir.OpShlI:
			regs[ins.Dst] = regs[ins.Src1] << (uint64(ins.Imm) & 63)
		case ir.OpShrI:
			regs[ins.Dst] = regs[ins.Src1] >> (uint64(ins.Imm) & 63)
		case ir.OpCmpEQ:
			regs[ins.Dst] = b2i(regs[ins.Src1] == regs[ins.Src2])
		case ir.OpCmpNE:
			regs[ins.Dst] = b2i(regs[ins.Src1] != regs[ins.Src2])
		case ir.OpCmpLT:
			regs[ins.Dst] = b2i(regs[ins.Src1] < regs[ins.Src2])
		case ir.OpCmpLE:
			regs[ins.Dst] = b2i(regs[ins.Src1] <= regs[ins.Src2])
		case ir.OpCmpEQI:
			regs[ins.Dst] = b2i(regs[ins.Src1] == ins.Imm)
		case ir.OpCmpNEI:
			regs[ins.Dst] = b2i(regs[ins.Src1] != ins.Imm)
		case ir.OpCmpLTI:
			regs[ins.Dst] = b2i(regs[ins.Src1] < ins.Imm)
		case ir.OpCmpLEI:
			regs[ins.Dst] = b2i(regs[ins.Src1] <= ins.Imm)
		case ir.OpCmpGTI:
			regs[ins.Dst] = b2i(regs[ins.Src1] > ins.Imm)
		case ir.OpCmpGEI:
			regs[ins.Dst] = b2i(regs[ins.Src1] >= ins.Imm)
		case ir.OpLoad:
			addr := regs[ins.Src1] + ins.Imm
			if addr < 0 || addr >= int64(len(m.mem)) {
				if !ins.Spec {
					return 0, 0, false, fmt.Errorf("%w: %d in %s/b%d", errUnmappedLoad, addr, p.Name, b.ID)
				}
				regs[ins.Dst] = 0 // non-excepting speculative load
			} else {
				regs[ins.Dst] = m.mem[addr]
			}
		case ir.OpStore:
			addr := regs[ins.Src1] + ins.Imm
			if addr < 0 || addr >= int64(len(m.mem)) {
				return 0, 0, false, fmt.Errorf("interp: store to unmapped address %d in %s/b%d", addr, p.Name, b.ID)
			}
			m.mem[addr] = regs[ins.Src2]
		case ir.OpEmit:
			m.res.Output = append(m.res.Output, regs[ins.Src1])

		case ir.OpBr:
			m.res.DynBranches++
			var tgt ir.BlockID
			if regs[ins.Src1] != 0 {
				tgt = ins.Targets[0]
			} else {
				tgt = ins.Targets[1]
			}
			if tgt == ir.NoBlock {
				continue // merged superblock: fall through in-block
			}
			m.leaveBlock(b, i, sched)
			return tgt, 0, false, nil

		case ir.OpJmp:
			m.leaveBlock(b, i, sched)
			return ins.Targets[0], 0, false, nil

		case ir.OpSwitch:
			m.res.DynBranches++
			idx := regs[ins.Src1]
			var tgt ir.BlockID
			if idx >= 0 && idx < int64(len(ins.Targets)-1) {
				tgt = ins.Targets[idx]
			} else {
				tgt = ins.Targets[len(ins.Targets)-1]
			}
			if tgt == ir.NoBlock {
				continue
			}
			m.leaveBlock(b, i, sched)
			return tgt, 0, false, nil

		case ir.OpCall:
			m.res.Calls++
			var args [ir.MaxArgs]int64
			for ai, r := range ins.Args {
				args[ai] = regs[r]
			}
			rv, err := m.call(ins.Callee, args[:len(ins.Args)], depth+1)
			if err != nil {
				return 0, 0, false, err
			}
			regs[ins.Dst] = rv
			if ins.Targets[0] == ir.NoBlock {
				continue
			}
			m.leaveBlock(b, i, sched)
			return ins.Targets[0], 0, false, nil

		case ir.OpRet:
			m.leaveBlock(b, i, sched)
			return 0, regs[ins.Src1], true, nil

		default:
			return 0, 0, false, fmt.Errorf("interp: unknown opcode %v", ins.Op)
		}
	}
	// Fell off the end of the block: only legal in merged superblocks
	// where the final control op had a NoBlock slot? No — the verifier
	// guarantees a terminator, and every terminator either transfers
	// control or (with a NoBlock slot) continues the loop above, which
	// then runs past the final instruction only if that terminator fell
	// through. That is a malformed merged block.
	return 0, 0, false, fmt.Errorf("interp: control fell off end of %s/b%d", p.Name, b.ID)
}

// leaveBlock charges cycles and fetch traffic for executing b up to and
// including instruction i.
func (m *machine) leaveBlock(b *ir.Block, i int, sched bool) {
	var cycles int64
	if sched {
		if i == len(b.Instrs)-1 {
			cycles = int64(b.Span)
		} else {
			cycles = int64(b.Cycles[i]) + 1
		}
	} else {
		cycles = int64(i + 1)
	}
	m.res.Cycles += cycles
	if b.SBSize > 0 {
		// Early-exit accounting: ExitUnits[i] holds the number of
		// constituent blocks completed when leaving via instruction i.
		m.res.SBExecuted += int64(exitUnits(b, i))
	}
	if m.cfg.Fetch != nil {
		stall := m.cfg.Fetch.FetchRange(b.Addr, b.Addr+4*int64(i+1))
		m.res.Cycles += stall
		m.res.FetchStall += stall
	}
}

func exitUnits(b *ir.Block, i int) int32 {
	if b.ExitUnits == nil {
		return b.SBSize
	}
	if u := b.ExitUnits[i]; u > 0 {
		return u
	}
	return b.SBSize
}

// Per-event adaptation for the reference engine: Block events are
// dropped (they are implied — see the BatchObserver contract), Edge
// events append, Enter/Exit flush and forward.

func (b *batcher) EnterProc(p ir.ProcID, entry ir.BlockID) {
	b.flush()
	b.bo.BeginProc(p, entry)
}

func (b *batcher) ExitProc(p ir.ProcID) {
	b.flush()
	b.bo.EndProc(p)
}

func (b *batcher) Edge(p ir.ProcID, from, to ir.BlockID) {
	b.proc = p
	b.buf[b.n] = EdgeRec{From: from, To: to}
	if b.n++; b.n == batchCap {
		b.bo.EdgeBatch(p, b.buf[:batchCap])
		b.n = 0
	}
}

func (b *batcher) Block(p ir.ProcID, blk ir.BlockID) {}
