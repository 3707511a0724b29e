package interp

import (
	"errors"
	"fmt"

	"pathsched/internal/ir"
)

// This file is the execution half of the pre-decoded engine (see
// decode.go for the representation). One fused loop per activation
// drives both block selection and instruction execution — there is no
// per-block function call, and the instruction cases do no accounting
// at all:
//
//   - every counter a block departure implies (DynInstrs, DynBlocks,
//     DynBranches, Calls, Cycles, superblock credits) is a decode-time
//     constant of the exit index, so the loop's only accounting is one
//     visit-count increment per departure; the Result is reconstructed
//     when the run completes as Σ count(i) × exits[i] (flushCounts) —
//     exact, because every Result counter is a commutative sum. Only
//     the fetch model, which is stateful, is consulted live;
//   - the step limit is checked once per block against the block's
//     full instruction count instead of once per instruction
//     (Config.MaxSteps documents the resulting budget semantics);
//   - batch delivery and the fetch model are behind per-block nil
//     checks, so unhooked measurement runs pay only two predictable
//     branches per block.
//
// A batched run delivers exactly the batch stream the reference
// engine's per-block events produce through the same buffer.

var errUnmappedLoad = errors.New("interp: load from unmapped address")

// Run executes the decoded program's main procedure, or returns the
// program's decode error (ErrTooManyRegisters, or a call passing more
// than ir.MaxArgs arguments). The differential tests in decode_test.go
// pin Results, errors and batch streams byte-identical to the seed
// engine, kept as the test oracle in reference_test.go.
func (e *Engine) Run(cfg Config) (*Result, error) {
	res, _, err := e.runCore(cfg, false)
	return res, err
}

// RunCounted executes like Run but also returns the engine's dense
// per-exit visit counters as an EdgeCounts, from which exact edge,
// block-entry and call-graph profiles are reconstructed post-hoc (see
// counts.go) — a pure edge-profiled run therefore executes with no
// per-edge observer work at all. cfg.Batch may still be set (the
// training pipeline runs the path profiler batched and the edge
// profiler counted in one pass). Decode errors are returned as by Run.
func (e *Engine) RunCounted(cfg Config) (*Result, *EdgeCounts, error) {
	return e.runCore(cfg, true)
}

func (e *Engine) runCore(cfg Config, counted bool) (*Result, *EdgeCounts, error) {
	if e.err != nil {
		return nil, nil, e.err
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = defaultMaxSteps
	}
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = defaultMaxDepth
	}
	mem, err := initMem(e.prog)
	if err != nil {
		return nil, nil, err
	}
	m := &dmachine{
		eng:      e,
		mem:      mem,
		res:      &Result{},
		counts:   make([][]int64, len(e.procs)),
		maxSteps: cfg.MaxSteps,
		maxDepth: cfg.MaxDepth,
		fetch:    cfg.Fetch,
	}
	if cfg.Batch != nil {
		m.bat = &batcher{bo: cfg.Batch}
	}
	for i := range e.procs {
		if n := len(e.procs[i].code); n > 0 {
			m.counts[i] = make([]int64, n)
		}
	}
	if counted {
		// Live rows for the (rare) exit slots with several possible
		// destinations; everything else reconstructs from counts.
		m.mcounts = make([][][]int64, len(e.procs))
		for i := range e.procs {
			mt := e.procs[i].multiTargets
			if len(mt) == 0 {
				continue
			}
			rows := make([][]int64, len(mt))
			for k := range mt {
				rows[k] = make([]int64, len(mt[k]))
			}
			m.mcounts[i] = rows
		}
	}
	ret, err := m.call(int32(e.prog.Main), nil, 0)
	if err != nil {
		return nil, nil, err
	}
	m.flushCounts()
	m.res.Ret = ret
	var ec *EdgeCounts
	if counted {
		ec = newEdgeCounts(e, m.counts, m.mcounts)
	}
	return m.res, ec, nil
}

type dmachine struct {
	eng      *Engine
	mem      []int64
	res      *Result
	counts   [][]int64 // per proc, per code index: exit visit counts
	steps    int64
	maxSteps int64
	maxDepth int
	bat      *batcher    // batch event delivery (Config.Batch), or nil
	mcounts  [][][]int64 // counted runs: per proc, per multi-slot row
	fetch    FetchSink

	// framePool recycles register files across calls, as in the
	// reference engine. Frames are fixed 256-slot arrays so the
	// executor's uint8 operand indexing needs no bounds checks; only
	// the [:frameLen] prefix of dense slots (see frameSlots) is ever
	// zeroed or read.
	framePool []*[256]int64
}

// flushCounts reconstructs the Result counters from the exit visit
// counts (see the file comment): each taking of exit i contributes the
// decode-time constants in exits[i] exactly once.
func (m *dmachine) flushCounts() {
	res := m.res
	for pid, c := range m.counts {
		p := &m.eng.procs[pid]
		for i, cnt := range c {
			if cnt == 0 {
				continue
			}
			e := &p.exits[i]
			res.DynBlocks += cnt
			res.DynInstrs += cnt * int64(e.n)
			res.Cycles += cnt * e.cycles
			res.DynBranches += cnt * int64(e.branches)
			res.Calls += cnt * int64(e.calls)
			res.SBEntries += cnt * int64(e.sbEntry)
			res.SBSize += cnt * int64(e.sbSize)
			res.SBExecuted += cnt * int64(e.units)
		}
	}
}

func (m *dmachine) getFrame(size int) *[256]int64 {
	if n := len(m.framePool); n > 0 {
		f := m.framePool[n-1]
		m.framePool = m.framePool[:n-1]
		for i := 0; i < size; i++ {
			f[i] = 0
		}
		return f
	}
	return new([256]int64)
}

func (m *dmachine) putFrame(f *[256]int64) { m.framePool = append(m.framePool, f) }

// call runs one procedure activation and returns its r0. Frames are
// returned to the pool only on the success path; an error aborts the
// whole run, so pool state no longer matters.
func (m *dmachine) call(id int32, args []int64, depth int) (int64, error) {
	if depth > m.maxDepth {
		return 0, fmt.Errorf("interp: call depth exceeds %d", m.maxDepth)
	}
	if id < 0 || int(id) >= len(m.eng.procs) || m.eng.procs[id].missing {
		return 0, fmt.Errorf("interp: call to unknown proc %d", id)
	}
	p := &m.eng.procs[id]
	regs := m.getFrame(p.frameLen)
	for i, v := range args {
		regs[int(ir.RegArg0)+i] = v
	}
	var mc [][]int64
	if m.mcounts != nil {
		mc = m.mcounts[id]
	}
	ret, err := m.run(p, m.counts[id], mc, regs, depth)
	if err != nil {
		return 0, err
	}
	m.putFrame(regs)
	return ret, nil
}

// run executes one activation of p over the flat code array. counts
// is m.counts[p] — the per-exit visit tallies flushCounts turns back
// into Result counters when the whole run completes.
//
// The executor is a single flat program-counter loop: pc walks p.code,
// straight-line cases fall back to the dispatch with one increment,
// and every block transition funnels through the transfer tail below
// the switch. Running past a block's last instruction executes its
// dFellOff sentinel, which produces the reference engine's error.
//
// steps locally mirrors the global step total: it is written back to
// m.steps before a nested call and reloaded after (the callee shares
// the budget), keeping the per-block limit check a pure register
// compare. Error paths never flush anything — an error abandons the
// Result.
func (m *dmachine) run(p *dproc, counts []int64, mc [][]int64, regs *[256]int64, depth int) (int64, error) {
	bat := m.bat
	fetch := m.fetch
	ranges := p.ranges
	code := p.code
	mem := m.mem
	maxSteps := m.maxSteps
	steps := m.steps

	// Entry-block setup: same checks and events as the transfer tail,
	// minus the departure accounting (there is no block to depart).
	cur := p.entry
	if bat != nil {
		bat.flush() // deliver the caller's pending records first
		bat.bo.BeginProc(p.id, ir.BlockID(p.entry))
	}
	// uint32 compare folds the cur < 0 check into the bounds test.
	if uint32(cur) >= uint32(len(ranges)) {
		return 0, fmt.Errorf("interp: proc %s: bad block b%d", p.name, cur)
	}
	r := ranges[cur]
	lo := int32(r)
	n0 := int64(int32(r>>32) - lo)
	if r < 0 {
		n0 = 1 // single-jump block (see decode.go): hi half holds the target
	}
	if steps+n0 > maxSteps {
		return 0, fmt.Errorf("interp: step limit %d exceeded in %s/b%d", maxSteps, p.name, p.blocks[cur].id)
	}
	pc := lo
	var next int32
	for {
		ins := &code[pc]
		pc++
		switch ins.op {
		case dNop:
		case dMovI:
			regs[ins.dst] = ins.imm
		case dMov:
			regs[ins.dst] = regs[ins.src1]
		case dAdd:
			regs[ins.dst] = regs[ins.src1] + regs[ins.src2]
		case dSub:
			regs[ins.dst] = regs[ins.src1] - regs[ins.src2]
		case dMul:
			regs[ins.dst] = regs[ins.src1] * regs[ins.src2]
		case dAnd:
			regs[ins.dst] = regs[ins.src1] & regs[ins.src2]
		case dOr:
			regs[ins.dst] = regs[ins.src1] | regs[ins.src2]
		case dXor:
			regs[ins.dst] = regs[ins.src1] ^ regs[ins.src2]
		case dShl:
			regs[ins.dst] = regs[ins.src1] << (uint64(regs[ins.src2]) & 63)
		case dShr:
			regs[ins.dst] = regs[ins.src1] >> (uint64(regs[ins.src2]) & 63)
		case dAddI:
			regs[ins.dst] = regs[ins.src1] + ins.imm
		case dMulI:
			regs[ins.dst] = regs[ins.src1] * ins.imm
		case dAndI:
			regs[ins.dst] = regs[ins.src1] & ins.imm
		case dOrI:
			regs[ins.dst] = regs[ins.src1] | ins.imm
		case dXorI:
			regs[ins.dst] = regs[ins.src1] ^ ins.imm
		case dShlI:
			regs[ins.dst] = regs[ins.src1] << (uint64(ins.imm) & 63)
		case dShrI:
			regs[ins.dst] = regs[ins.src1] >> (uint64(ins.imm) & 63)
		case dCmpEQ:
			regs[ins.dst] = b2i(regs[ins.src1] == regs[ins.src2])
		case dCmpNE:
			regs[ins.dst] = b2i(regs[ins.src1] != regs[ins.src2])
		case dCmpLT:
			regs[ins.dst] = b2i(regs[ins.src1] < regs[ins.src2])
		case dCmpLE:
			regs[ins.dst] = b2i(regs[ins.src1] <= regs[ins.src2])
		case dCmpEQI:
			regs[ins.dst] = b2i(regs[ins.src1] == ins.imm)
		case dCmpNEI:
			regs[ins.dst] = b2i(regs[ins.src1] != ins.imm)
		case dCmpLTI:
			regs[ins.dst] = b2i(regs[ins.src1] < ins.imm)
		case dCmpLEI:
			regs[ins.dst] = b2i(regs[ins.src1] <= ins.imm)
		case dCmpGTI:
			regs[ins.dst] = b2i(regs[ins.src1] > ins.imm)
		case dCmpGEI:
			regs[ins.dst] = b2i(regs[ins.src1] >= ins.imm)

		// Fused compare+branch: one dispatch for the cmp/br pair that
		// closes nearly every block. The branch slot (at pc after the
		// increment above) holds the packed targets and supplies the
		// exit index, so accounting is identical to dispatching it
		// separately.
		case dCmpEQBr:
			v := b2i(regs[ins.src1] == regs[ins.src2])
			regs[ins.dst] = v
			t := code[pc].imm
			pc++
			if v != 0 {
				next = int32(uint32(t))
			} else {
				next = int32(uint32(t >> 32))
			}
			goto transfer
		case dCmpNEBr:
			v := b2i(regs[ins.src1] != regs[ins.src2])
			regs[ins.dst] = v
			t := code[pc].imm
			pc++
			if v != 0 {
				next = int32(uint32(t))
			} else {
				next = int32(uint32(t >> 32))
			}
			goto transfer
		case dCmpLTBr:
			v := b2i(regs[ins.src1] < regs[ins.src2])
			regs[ins.dst] = v
			t := code[pc].imm
			pc++
			if v != 0 {
				next = int32(uint32(t))
			} else {
				next = int32(uint32(t >> 32))
			}
			goto transfer
		case dCmpLEBr:
			v := b2i(regs[ins.src1] <= regs[ins.src2])
			regs[ins.dst] = v
			t := code[pc].imm
			pc++
			if v != 0 {
				next = int32(uint32(t))
			} else {
				next = int32(uint32(t >> 32))
			}
			goto transfer
		case dCmpEQIBr:
			v := b2i(regs[ins.src1] == ins.imm)
			regs[ins.dst] = v
			t := code[pc].imm
			pc++
			if v != 0 {
				next = int32(uint32(t))
			} else {
				next = int32(uint32(t >> 32))
			}
			goto transfer
		case dCmpNEIBr:
			v := b2i(regs[ins.src1] != ins.imm)
			regs[ins.dst] = v
			t := code[pc].imm
			pc++
			if v != 0 {
				next = int32(uint32(t))
			} else {
				next = int32(uint32(t >> 32))
			}
			goto transfer
		case dCmpLTIBr:
			v := b2i(regs[ins.src1] < ins.imm)
			regs[ins.dst] = v
			t := code[pc].imm
			pc++
			if v != 0 {
				next = int32(uint32(t))
			} else {
				next = int32(uint32(t >> 32))
			}
			goto transfer
		case dCmpLEIBr:
			v := b2i(regs[ins.src1] <= ins.imm)
			regs[ins.dst] = v
			t := code[pc].imm
			pc++
			if v != 0 {
				next = int32(uint32(t))
			} else {
				next = int32(uint32(t >> 32))
			}
			goto transfer
		case dCmpGTIBr:
			v := b2i(regs[ins.src1] > ins.imm)
			regs[ins.dst] = v
			t := code[pc].imm
			pc++
			if v != 0 {
				next = int32(uint32(t))
			} else {
				next = int32(uint32(t >> 32))
			}
			goto transfer
		case dCmpGEIBr:
			v := b2i(regs[ins.src1] >= ins.imm)
			regs[ins.dst] = v
			t := code[pc].imm
			pc++
			if v != 0 {
				next = int32(uint32(t))
			} else {
				next = int32(uint32(t >> 32))
			}
			goto transfer

		// Pair-tile superinstructions (see decode.go): the second
		// instruction is read straight from its own code slot, so every
		// transfer below exits with pc one past the departing slot and
		// the per-slot exit records apply unchanged. BrFT polarity:
		// src2 != 0 means jump when the condition is true (dBrElseFT),
		// src2 == 0 when it is false (dBrTakenFT).
		case dBrFTBrFT:
			if (regs[ins.src1] != 0) == (ins.src2 != 0) {
				next = int32(ins.imm)
				goto transfer
			}
			ins2 := &code[pc]
			pc++
			if (regs[ins2.src1] != 0) == (ins2.src2 != 0) {
				next = int32(ins2.imm)
				goto transfer
			}
		case dBrFTMov:
			if (regs[ins.src1] != 0) == (ins.src2 != 0) {
				next = int32(ins.imm)
				goto transfer
			}
			ins2 := &code[pc]
			pc++
			regs[ins2.dst] = regs[ins2.src1]
		case dBrFTCmpEQI:
			if (regs[ins.src1] != 0) == (ins.src2 != 0) {
				next = int32(ins.imm)
				goto transfer
			}
			ins2 := &code[pc]
			pc++
			regs[ins2.dst] = b2i(regs[ins2.src1] == ins2.imm)
		case dMovBrFT:
			regs[ins.dst] = regs[ins.src1]
			ins2 := &code[pc]
			pc++
			if (regs[ins2.src1] != 0) == (ins2.src2 != 0) {
				next = int32(ins2.imm)
				goto transfer
			}
		case dAddIBrFT:
			regs[ins.dst] = regs[ins.src1] + ins.imm
			ins2 := &code[pc]
			pc++
			if (regs[ins2.src1] != 0) == (ins2.src2 != 0) {
				next = int32(ins2.imm)
				goto transfer
			}
		case dCmpEQICmpEQI:
			regs[ins.dst] = b2i(regs[ins.src1] == ins.imm)
			ins2 := &code[pc]
			pc++
			regs[ins2.dst] = b2i(regs[ins2.src1] == ins2.imm)
		case dCmpLTIAndI:
			regs[ins.dst] = b2i(regs[ins.src1] < ins.imm)
			ins2 := &code[pc]
			pc++
			regs[ins2.dst] = regs[ins2.src1] & ins2.imm
		case dLoadSpecAddI:
			addr := regs[ins.src1] + ins.imm
			if uint64(addr) >= uint64(len(mem)) {
				regs[ins.dst] = 0
			} else {
				regs[ins.dst] = mem[addr]
			}
			ins2 := &code[pc]
			pc++
			regs[ins2.dst] = regs[ins2.src1] + ins2.imm
		case dAndILoadSpec:
			regs[ins.dst] = regs[ins.src1] & ins.imm
			ins2 := &code[pc]
			pc++
			addr := regs[ins2.src1] + ins2.imm
			if uint64(addr) >= uint64(len(mem)) {
				regs[ins2.dst] = 0
			} else {
				regs[ins2.dst] = mem[addr]
			}
		case dAddIAddI:
			regs[ins.dst] = regs[ins.src1] + ins.imm
			ins2 := &code[pc]
			pc++
			regs[ins2.dst] = regs[ins2.src1] + ins2.imm
		case dCmpEQIAddI:
			regs[ins.dst] = b2i(regs[ins.src1] == ins.imm)
			ins2 := &code[pc]
			pc++
			regs[ins2.dst] = regs[ins2.src1] + ins2.imm
		case dAddIJmp:
			regs[ins.dst] = regs[ins.src1] + ins.imm
			next = int32(code[pc].imm)
			pc++
			goto transfer
		case dMovIJmp:
			regs[ins.dst] = ins.imm
			next = int32(code[pc].imm)
			pc++
			goto transfer
		case dMovJmp:
			regs[ins.dst] = regs[ins.src1]
			next = int32(code[pc].imm)
			pc++
			goto transfer
		case dAndICmpEQI:
			regs[ins.dst] = regs[ins.src1] & ins.imm
			ins2 := &code[pc]
			pc++
			regs[ins2.dst] = b2i(regs[ins2.src1] == ins2.imm)
		case dAddICmpEQI:
			regs[ins.dst] = regs[ins.src1] + ins.imm
			ins2 := &code[pc]
			pc++
			regs[ins2.dst] = b2i(regs[ins2.src1] == ins2.imm)
		case dAndICmpEQIBr:
			regs[ins.dst] = regs[ins.src1] & ins.imm
			ins2 := &code[pc]
			pc++
			v := b2i(regs[ins2.src1] == ins2.imm)
			regs[ins2.dst] = v
			t := code[pc].imm
			pc++
			if v != 0 {
				next = int32(uint32(t))
			} else {
				next = int32(uint32(t >> 32))
			}
			goto transfer
		case dAddICmpEQIBr:
			regs[ins.dst] = regs[ins.src1] + ins.imm
			ins2 := &code[pc]
			pc++
			v := b2i(regs[ins2.src1] == ins2.imm)
			regs[ins2.dst] = v
			t := code[pc].imm
			pc++
			if v != 0 {
				next = int32(uint32(t))
			} else {
				next = int32(uint32(t >> 32))
			}
			goto transfer
		case dLoadAddI:
			addr := regs[ins.src1] + ins.imm
			if uint64(addr) >= uint64(len(mem)) {
				return 0, fmt.Errorf("%w: %d in %s/b%d", errUnmappedLoad, addr, p.name, p.blocks[cur].id)
			}
			regs[ins.dst] = mem[addr]
			ins2 := &code[pc]
			pc++
			regs[ins2.dst] = regs[ins2.src1] + ins2.imm
		case dMovMov:
			regs[ins.dst] = regs[ins.src1]
			ins2 := &code[pc]
			pc++
			regs[ins2.dst] = regs[ins2.src1]
		case dMovLoadSpec:
			regs[ins.dst] = regs[ins.src1]
			ins2 := &code[pc]
			pc++
			addr := regs[ins2.src1] + ins2.imm
			if uint64(addr) >= uint64(len(mem)) {
				regs[ins2.dst] = 0
			} else {
				regs[ins2.dst] = mem[addr]
			}
		case dAndIMov:
			regs[ins.dst] = regs[ins.src1] & ins.imm
			ins2 := &code[pc]
			pc++
			regs[ins2.dst] = regs[ins2.src1]
		case dCmpEQICmpLTI:
			regs[ins.dst] = b2i(regs[ins.src1] == ins.imm)
			ins2 := &code[pc]
			pc++
			regs[ins2.dst] = b2i(regs[ins2.src1] < ins2.imm)
		case dLoadSpecCmpEQI:
			addr := regs[ins.src1] + ins.imm
			if uint64(addr) >= uint64(len(mem)) {
				regs[ins.dst] = 0
			} else {
				regs[ins.dst] = mem[addr]
			}
			ins2 := &code[pc]
			pc++
			regs[ins2.dst] = b2i(regs[ins2.src1] == ins2.imm)
		case dMovIAddI:
			regs[ins.dst] = ins.imm
			ins2 := &code[pc]
			pc++
			regs[ins2.dst] = regs[ins2.src1] + ins2.imm
		case dAndIJmp:
			regs[ins.dst] = regs[ins.src1] & ins.imm
			next = int32(code[pc].imm)
			pc++
			goto transfer

		// Run superinstructions (see decode.go): the head instruction
		// carries the run length in an operand byte it does not use;
		// the body re-reads each successive slot, so a mid-run branch
		// exit leaves pc one past the jumping slot as usual.
		case dBrFTRun:
			for n := ins.dst; ; {
				if (regs[ins.src1] != 0) == (ins.src2 != 0) {
					next = int32(ins.imm)
					goto transfer
				}
				if n--; n == 0 {
					break
				}
				ins = &code[pc]
				pc++
			}
		case dCmpEQIRun:
			for n := ins.src2; ; {
				regs[ins.dst] = b2i(regs[ins.src1] == ins.imm)
				if n--; n == 0 {
					break
				}
				ins = &code[pc]
				pc++
			}
		case dMovRun:
			for n := ins.src2; ; {
				regs[ins.dst] = regs[ins.src1]
				if n--; n == 0 {
					break
				}
				ins = &code[pc]
				pc++
			}

		// Unit patterns (see decode.go): the scheduler's fixed
		// multi-instruction shapes under a single dispatch. Body slots
		// keep their exit records, so the side-exit branch leaves pc
		// one past its own slot as usual.
		case dLoadUnit:
			regs[ins.dst] = b2i(regs[ins.src1] < ins.imm)
			ins2 := &code[pc]
			pc++
			regs[ins2.dst] = regs[ins2.src1] & ins2.imm
			ins3 := &code[pc]
			pc++
			addr := regs[ins3.src1] + ins3.imm
			if uint64(addr) >= uint64(len(mem)) {
				regs[ins3.dst] = 0
			} else {
				regs[ins3.dst] = mem[addr]
			}
			ins4 := &code[pc]
			pc++
			regs[ins4.dst] = regs[ins4.src1] + ins4.imm
		case dLoadUnitBr:
			regs[ins.dst] = b2i(regs[ins.src1] < ins.imm)
			ins2 := &code[pc]
			pc++
			regs[ins2.dst] = regs[ins2.src1] & ins2.imm
			ins3 := &code[pc]
			pc++
			addr := regs[ins3.src1] + ins3.imm
			if uint64(addr) >= uint64(len(mem)) {
				regs[ins3.dst] = 0
			} else {
				regs[ins3.dst] = mem[addr]
			}
			ins4 := &code[pc]
			pc++
			regs[ins4.dst] = regs[ins4.src1] + ins4.imm
			ins5 := &code[pc]
			pc++
			if (regs[ins5.src1] != 0) == (ins5.src2 != 0) {
				next = int32(ins5.imm)
				goto transfer
			}
		case dMovBrFTMov:
			regs[ins.dst] = regs[ins.src1]
			ins2 := &code[pc]
			pc++
			if (regs[ins2.src1] != 0) == (ins2.src2 != 0) {
				next = int32(ins2.imm)
				goto transfer
			}
			ins3 := &code[pc]
			pc++
			regs[ins3.dst] = regs[ins3.src1]

		case dLoad:
			// uint64 compare folds the addr < 0 check into the bounds
			// test (negative addresses wrap to huge unsigned values).
			addr := regs[ins.src1] + ins.imm
			if uint64(addr) >= uint64(len(mem)) {
				return 0, fmt.Errorf("%w: %d in %s/b%d", errUnmappedLoad, addr, p.name, p.blocks[cur].id)
			}
			regs[ins.dst] = mem[addr]
		case dLoadSpec:
			addr := regs[ins.src1] + ins.imm
			if uint64(addr) >= uint64(len(mem)) {
				regs[ins.dst] = 0 // non-excepting speculative load
			} else {
				regs[ins.dst] = mem[addr]
			}
		case dStore:
			addr := regs[ins.src1] + ins.imm
			if uint64(addr) >= uint64(len(mem)) {
				return 0, fmt.Errorf("interp: store to unmapped address %d in %s/b%d", addr, p.name, p.blocks[cur].id)
			}
			mem[addr] = regs[ins.src2]
		case dEmit:
			m.res.Output = append(m.res.Output, regs[ins.src1])

		case dBr:
			if regs[ins.src1] != 0 {
				next = int32(uint32(ins.imm))
			} else {
				next = int32(uint32(ins.imm >> 32))
			}
			goto transfer
		case dBrTakenFT:
			// Merged superblock: condition true falls through in-block.
			if regs[ins.src1] == 0 {
				next = int32(ins.imm)
				goto transfer
			}
		case dBrElseFT:
			if regs[ins.src1] != 0 {
				next = int32(ins.imm)
				goto transfer
			}
		case dBrBothFT:
			// Always falls through in-block; its DynBranches credit is
			// carried by the exit record.

		case dJmp:
			next = int32(ins.imm)
			goto transfer

		case dSwitch:
			tab := p.tables[ins.imm]
			idx := regs[ins.src1]
			t := tab[len(tab)-1]
			if idx >= 0 && idx < int64(len(tab)-1) {
				t = tab[idx]
			}
			if t != int32(ir.NoBlock) {
				next = t
				goto transfer
			}
			// NoBlock slot: fall through in-block.

		case dCall, dCallFT:
			// Inlined call fast path: the callee was validated at
			// decode time (see NewEngine), so only the depth check
			// remains, and arguments are written straight into the
			// callee's frame. depth >= maxDepth here is the
			// reference's depth+1 > maxDepth check for the callee.
			if depth >= m.maxDepth {
				return 0, fmt.Errorf("interp: call depth exceeds %d", m.maxDepth)
			}
			c := &p.calls[ins.imm]
			cp := &m.eng.procs[c.callee]
			cregs := m.getFrame(cp.frameLen)
			for ai, rg := range p.args[c.argLo:c.argHi] {
				cregs[int(ir.RegArg0)+ai] = regs[rg]
			}
			// The callee shares the global step budget: publish our
			// local count, and reload whatever it consumed.
			m.steps = steps
			var cmc [][]int64
			if m.mcounts != nil {
				cmc = m.mcounts[c.callee]
			}
			rv, cerr := m.run(cp, m.counts[c.callee], cmc, cregs, depth+1)
			if cerr != nil {
				return 0, cerr
			}
			m.putFrame(cregs)
			steps = m.steps
			regs[ins.dst] = rv
			if ins.op == dCall {
				next = c.cont
				goto transfer
			}
			// dCallFT: fall through in-block.

		case dRet:
			// Departure accounting inline (see the transfer tail), then
			// straight out of the activation.
			counts[pc-1]++
			n := int64(pc - lo)
			steps += n
			if fetch != nil {
				b := &p.blocks[cur]
				stall := fetch.FetchRange(b.addr, b.addr+4*n)
				m.res.Cycles += stall
				m.res.FetchStall += stall
			}
			if bat != nil {
				bat.flush()
				bat.bo.EndProc(p.id)
			}
			m.steps = steps
			return regs[ins.src1], nil

		case dBad:
			return 0, fmt.Errorf("interp: unknown opcode %v", ir.Opcode(ins.imm))
		case dBadCall:
			if depth >= m.maxDepth {
				return 0, fmt.Errorf("interp: call depth exceeds %d", m.maxDepth)
			}
			return 0, fmt.Errorf("interp: call to unknown proc %d", ins.imm)
		case dFellOff:
			return 0, fmt.Errorf("interp: control fell off end of %s/b%d", p.name, ins.imm)
		}
		continue

	transfer:
		// Departure accounting: one visit-count increment (pc-1 is the
		// exit index). Everything the reference engine counted while
		// walking the departed block is reconstructed from this tally
		// by flushCounts. Only the fetch model is stateful and must be
		// consulted in visit order.
		counts[pc-1]++
		if mc != nil {
			// Counted run: an exit slot with several possible
			// destinations tallies which one was taken (everything
			// else reconstructs from counts alone). Chained jumps and
			// dRet below never reach here, and are single-destination
			// anyway.
			if mi := p.multiIdx[pc-1]; mi >= 0 {
				ts := p.multiTargets[mi]
				row := mc[mi]
				for k := 0; k < len(ts); k++ {
					if ts[k] == next {
						row[k]++
						break
					}
				}
			}
		}
		n := int64(pc - lo)
		steps += n
		if fetch != nil {
			b := &p.blocks[cur]
			stall := fetch.FetchRange(b.addr, b.addr+4*n)
			// Stalls count toward both total cycles and the stall
			// tally, as in the reference engine.
			m.res.Cycles += stall
			m.res.FetchStall += stall
		}
		// Entry into next: identical checks and events to the
		// entry-block setup above.
	chain:
		if uint32(next) >= uint32(len(ranges)) {
			return 0, fmt.Errorf("interp: proc %s: bad block b%d", p.name, next)
		}
		if bat != nil {
			// Batched delivery: one append; mirrors the oracle's
			// batcher.Edge exactly so both engines produce identical
			// batch streams.
			bat.proc = p.id
			bat.buf[bat.n] = EdgeRec{From: p.blocks[cur].id, To: p.blocks[next].id}
			if bat.n++; bat.n == batchCap {
				bat.bo.EdgeBatch(p.id, bat.buf[:batchCap])
				bat.n = 0
			}
		}
		r = ranges[next]
		lo = int32(r)
		if r < 0 {
			// Single-jump block (see decode.go): its whole execution —
			// step check, one-instruction departure accounting, fetch —
			// happens here, then control chains to the jump target
			// without dispatching the instruction.
			if steps+1 > maxSteps {
				return 0, fmt.Errorf("interp: step limit %d exceeded in %s/b%d", maxSteps, p.name, p.blocks[next].id)
			}
			counts[lo]++
			steps++
			if fetch != nil {
				b := &p.blocks[next]
				stall := fetch.FetchRange(b.addr, b.addr+4)
				m.res.Cycles += stall
				m.res.FetchStall += stall
			}
			cur = next
			next = int32((r >> 32) & 0x7fffffff)
			goto chain
		}
		if steps+int64(int32(r>>32)-lo) > maxSteps {
			return 0, fmt.Errorf("interp: step limit %d exceeded in %s/b%d", maxSteps, p.name, p.blocks[next].id)
		}
		cur = next
		pc = lo
	}
}

func b2i(v bool) int64 {
	if v {
		return 1
	}
	return 0
}
