package profile

import (
	"fmt"

	"pathsched/internal/interp"
	"pathsched/internal/ir"
)

// Replay (DESIGN.md §17). A compiled block's UnitOrigins name the
// pristine block each of its units implements, so once a pristine run
// has made every branch decision, the departures a compile of that
// program makes on the same input follow from the decisions alone:
// a pristine run records them once as a BranchTrace, and one walker
// steps a compile unit by unit against them. No compiled program is
// executed. The walk feeds three consumers:
//
//   - Replay: the layout weights Pettis–Hansen placement wants, the
//     point profile of the transformed program on the training input,
//     from the training run's trace;
//   - Measure: the measurement Result of a proved compile on the
//     testing input (paper §3.2), from the reference run's trace, each
//     departure charged its ir.ExitCharge;
//   - the I-cache, which Measure feeds every departure's fetch range
//     in execution order.

// BranchTrace is the branch-decision record of one pristine run, as
// the engine records it (interp.EdgeCounts.Decisions): one
// distinct-successor index per executed Br or Switch that has at least
// two distinct targets, in execution order. An index is one byte; an
// index of 255 or more (only a terminator with more than 255 distinct
// successors can produce one) is the escape byte 255 followed by the
// uvarint of index-255. The trace also keeps the run's block count,
// which bounds a walk. It is immutable once recorded, so any number of
// walks may read it at once.
type BranchTrace struct {
	data   []byte
	blocks int64 // pristine block executions of the recorded run
}

// appendDistinct appends ins's distinct targets to dst in
// first-occurrence order: a terminator's successor list, which decision
// indices count into. Duplicate switch arms name one successor.
func appendDistinct(dst []ir.BlockID, ins *ir.Instr) []ir.BlockID {
	start := len(dst)
next:
	for _, t := range ins.Targets {
		for _, s := range dst[start:] {
			if s == t {
				continue next
			}
		}
		dst = append(dst, t)
	}
	return dst
}

// traceOf returns the branch trace of a completed counted run of a
// pristine program: its decision record and block count.
func traceOf(res *interp.Result, ec *interp.EdgeCounts) *BranchTrace {
	return &BranchTrace{data: ec.Decisions(), blocks: res.DynBlocks}
}

// RecordRun executes prog once, as a measurement's reference run, and
// returns the run's Result and its branch trace, recorded the way Train
// records the training run's. Measure walks any proved compile of prog
// against the trace. Errors are returned as by interp.Run.
func RecordRun(prog *ir.Program) (*interp.Result, *BranchTrace, error) {
	res, ec, err := interp.EngineFor(prog).RunCounted(interp.Config{})
	if err != nil {
		return nil, nil, err
	}
	return res, traceOf(res, ec), nil
}

// A unit's kind is what the pristine terminator of its origin does,
// and says where the unit's arcs live. A branching unit has one arc per
// pristine distinct successor, which a decision k selects.
const (
	unitJump   = iota // one successor: arcs[0], no decision read
	unitBranch        // two successors: arcs[k] for a decision byte k
	unitSwitch        // more: replayProc.arcs[site+k]
	unitCall          // run callee activation site, then arcs[0], the continuation
	unitRet           // arcs[0], the return's departure; end the activation
)

// replayUnit is one unit of a compiled block.
type replayUnit struct {
	arcs  [2]replayArc
	kind  uint8
	site  int32 // unitCall: the call site, indexing replayProc.callee and callN; unitSwitch: its first arc
	narcs int32 // unitSwitch: its arc count
}

// replayArc is where a unit's step leads: past skip units that only
// fall through to the next unit of their block (a pristine jump the
// compile left on the trace), which the walk counts but does not step,
// to unit.
type replayArc struct {
	unit int32 // index into replayProc.units; -1 for a return
	edge int32 // the departure taken, or -1 when control stays in the block
	skip int32
}

// departure is one departure's walk counter and the code it fetches,
// [lo, hi).
type departure struct {
	n      int64
	lo, hi int64
}

// replayProc holds one compiled procedure's units and counters. The
// units of a block are adjacent, in unit order, and block 0's unit 0
// (the procedure's entry) comes first.
type replayProc struct {
	units []replayUnit
	arcs  []replayArc // switch units' arcs
	entry replayArc   // an activation's start: unit 0, past its skips
	// Departures in (block, instruction, target) order: the order the
	// engine's counters list edges in, so the profile built from them
	// matches PointProfiles entry for entry. Block from departs through
	// its instruction exit, fetching [Addr, Addr+4·(exit+1)); to is the
	// block control lands on, ir.NoBlock for a return.
	deps     []departure
	from, to []ir.BlockID
	exit     []int32
	callee   []ir.ProcID // per call site

	callN []int64 // per call site
	acts  int64
}

// Replay returns the point profile of bin, a compile of pristine, on
// the run tr recorded: the edge profile and dynamic call counts that
// PointProfiles(bin) would gather if bin ran on that input, without
// running it. bin's blocks must carry the trace metadata compaction
// records (UnitOrigins, Units).
//
// The walk steps bin one unit at a time. At unit u of a block, the
// pristine terminator of UnitOrigins[u] decides the step: read a
// decision, replay a callee activation, or return. The unit's compiled
// control instruction decides where control goes: its Targets[k]
// mirror the pristine terminator's slot k, and ir.NoBlock means stay on
// the trace, at unit u+1.
//
// Replay checks its own premises and returns an error rather than a
// profile when one fails: a block without UnitOrigins, two control
// instructions in one unit, exits out of unit order, a fall-through or
// exit that lands on a unit whose origin is not the pristine
// successor, a ret or call (or callee) that disagrees with the
// pristine terminator, a trace that runs out or has decisions left
// over, and a walk that outruns the recorded run's block count or
// falls short of it.
func Replay(pristine, bin *ir.Program, tr *BranchTrace) (*EdgeProfile, map[[2]ir.ProcID]int64, error) {
	procs, _, err := replay(pristine, bin, tr, nil)
	if err != nil {
		return nil, nil, err
	}
	ep := newEdgeProfile(bin)
	calls := map[[2]ir.ProcID]int64{}
	for pid, rp := range procs {
		pe := ep.procs[pid]
		pe.entries = rp.acts
		// A completed run departs every block it enters once: block
		// counts are the entries, i.e. activations into the entry block
		// plus the departures landing on each block.
		pe.block[0] = rp.acts
		for e, d := range rp.deps {
			if to := rp.to[e]; to != ir.NoBlock && d.n != 0 {
				pe.block[to] += d.n
				pe.addEdge(rp.from[e], to, d.n)
			}
		}
		for s, n := range rp.callN {
			if n != 0 {
				calls[[2]ir.ProcID{ir.ProcID(pid), rp.callee[s]}] += n
			}
		}
	}
	return ep, calls, nil
}

// Measure returns the Result interp.Run(bin) would give on the input
// of the pristine run tr recorded (RecordRun), without running bin:
// every counter is the sum of the walked departures' ir.ExitCharges,
// and fetch, when non-nil, receives each departure's fetch range in
// execution order and charges its stalls, as it would from the engine.
// Ret and Output stay zero; they are the recorded run's.
//
// The walk is exact only for a compile whose every exit is proved to
// branch as its pristine terminator does (internal/validate); Measure
// checks the premises Replay checks, not the proof.
func Measure(pristine, bin *ir.Program, tr *BranchTrace, fetch interp.FetchSink) (*interp.Result, error) {
	procs, stall, err := replay(pristine, bin, tr, fetch)
	if err != nil {
		return nil, err
	}
	res := &interp.Result{Cycles: stall, FetchStall: stall}
	var charges []ir.ExitCharge
	for pid, rp := range procs {
		blocks := bin.Procs[pid].Blocks
		last := ir.NoBlock
		for e, d := range rp.deps {
			if d.n == 0 {
				continue
			}
			if rp.from[e] != last {
				last = rp.from[e]
				charges = blocks[last].AppendExitCharges(charges[:0])
			}
			res.Charge(charges[rp.exit[e]], d.n)
		}
	}
	return res, nil
}

// replay builds bin's unit tables against pristine and walks them over
// tr, feeding fetch (nil: none). It returns the counted tables and the
// stall cycles fetch charged.
func replay(pristine, bin *ir.Program, tr *BranchTrace, fetch interp.FetchSink) ([]*replayProc, int64, error) {
	if tr == nil {
		return nil, 0, fmt.Errorf("profile: replay: no branch trace")
	}
	if len(bin.Procs) != len(pristine.Procs) || bin.Main != pristine.Main {
		return nil, 0, fmt.Errorf("profile: replay: compile has %d procedures (main %d), pristine program %d (main %d)",
			len(bin.Procs), bin.Main, len(pristine.Procs), pristine.Main)
	}
	procs := make([]*replayProc, len(bin.Procs))
	for i, p := range bin.Procs {
		rp, err := replayTables(pristine.Procs[i], p)
		if err != nil {
			return nil, 0, fmt.Errorf("profile: replay: %s: %w", p.Name, err)
		}
		procs[i] = rp
	}
	stall, err := walk(procs, bin.Main, tr, fetch)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: replay: %w", err)
	}
	return procs, stall, nil
}

// replayTables builds the unit tables of bin, a compile of pristine
// procedure pp, checking that each unit's control instruction mirrors
// its origin's pristine terminator.
func replayTables(pp, bp *ir.Proc) (*replayProc, error) {
	if len(bp.Blocks) == 0 {
		return nil, fmt.Errorf("no blocks")
	}
	// Distinct successors per pristine block, shared by every unit of
	// the same origin, in one backing array.
	n := 0
	for _, b := range pp.Blocks {
		n += len(b.Terminator().Targets)
	}
	flat := make([]ir.BlockID, 0, n)
	psuccs := make([][]ir.BlockID, len(pp.Blocks))
	for _, b := range pp.Blocks {
		start := len(flat)
		flat = appendDistinct(flat, b.Terminator())
		psuccs[b.ID] = flat[start:]
	}
	// Block b's unit u is units[first[b]+u].
	first := make([]int32, len(bp.Blocks))
	nunits := int32(0)
	for i, b := range bp.Blocks {
		if len(b.UnitOrigins) == 0 {
			return nil, fmt.Errorf("b%d has no trace metadata (UnitOrigins)", b.ID)
		}
		for _, o := range b.UnitOrigins {
			if o < 0 || int(o) >= len(pp.Blocks) {
				return nil, fmt.Errorf("b%d names pristine b%d, which does not exist", b.ID, o)
			}
		}
		first[i] = nunits
		nunits += int32(len(b.UnitOrigins))
	}
	if o := bp.Blocks[0].UnitOrigins[0]; o != 0 {
		return nil, fmt.Errorf("entry block implements pristine b%d, not the pristine entry b0", o)
	}

	rp := &replayProc{units: make([]replayUnit, nunits)}
	var ctl []int // per unit of the current block: its control instruction, or -1
	for bi, b := range bp.Blocks {
		nu := len(b.UnitOrigins)
		if b.Units == nil && nu != 1 {
			return nil, fmt.Errorf("b%d has %d units but no Units map", b.ID, nu)
		}
		ctl = ctl[:0]
		for u := 0; u < nu; u++ {
			ctl = append(ctl, -1)
		}
		last := -1
		for i := range b.Instrs {
			if !b.Instrs[i].Op.IsTerminator() {
				continue
			}
			u := 0
			if b.Units != nil {
				u = int(b.Units[i]) - 1
			}
			switch {
			case u < 0 || u >= nu:
				return nil, fmt.Errorf("b%d instr %d: unit %d out of range", b.ID, i, u+1)
			case u == last:
				return nil, fmt.Errorf("b%d unit %d has two control instructions (%d and %d)", b.ID, u, ctl[u], i)
			case u < last:
				return nil, fmt.Errorf("b%d instr %d: exit of unit %d after an exit of unit %d", b.ID, i, u, last)
			}
			ctl[u] = i
			last = u
		}

		// resolve finds the unit compiled target t (ir.NoBlock: stay) of
		// unit u leads to, and checks that it implements the pristine
		// successor want: the next unit for a stay, else unit 0 of t.
		resolve := func(u, instr int, t, want ir.BlockID) (int32, error) {
			if t == ir.NoBlock {
				if u+1 >= nu {
					return 0, fmt.Errorf("b%d unit %d falls through past the block's last unit", b.ID, u)
				}
				if got := b.UnitOrigins[u+1]; got != want {
					return 0, fmt.Errorf("b%d unit %d falls through to a unit of pristine b%d, pristine successor is b%d", b.ID, u, got, want)
				}
				return first[bi] + int32(u) + 1, nil
			}
			if t < 0 || int(t) >= len(bp.Blocks) {
				return 0, fmt.Errorf("b%d instr %d targets b%d, which does not exist", b.ID, instr, t)
			}
			if got := bp.Blocks[t].UnitOrigins[0]; got != want {
				return 0, fmt.Errorf("b%d instr %d exits to b%d, which implements pristine b%d; pristine successor is b%d", b.ID, instr, t, got, want)
			}
			return first[t], nil
		}
		// arc returns the arc to unit next through compiled target t of
		// instruction instr; a departure (t real, or a return) gets the
		// next departure counter.
		arc := func(next int32, instr int, t ir.BlockID) replayArc {
			a := replayArc{unit: next, edge: -1}
			if t != ir.NoBlock || next < 0 {
				a.edge = int32(len(rp.deps))
				rp.deps = append(rp.deps, departure{lo: b.Addr, hi: b.Addr + 4*int64(instr+1)})
				rp.from = append(rp.from, b.ID)
				rp.to = append(rp.to, t)
				rp.exit = append(rp.exit, int32(instr))
			}
			return a
		}

		for u := 0; u < nu; u++ {
			o := b.UnitOrigins[u]
			pt := pp.Blocks[o].Terminator()
			un := &rp.units[first[bi]+int32(u)]
			i := ctl[u]
			var ci *ir.Instr
			if i >= 0 {
				ci = &b.Instrs[i]
			}
			switch pt.Op {
			case ir.OpRet:
				if ci == nil || ci.Op != ir.OpRet {
					return nil, fmt.Errorf("b%d unit %d: pristine b%d returns, the compile does not", b.ID, u, o)
				}
				if u != nu-1 {
					return nil, fmt.Errorf("b%d unit %d: return before the block's last unit", b.ID, u)
				}
				un.kind = unitRet
				un.arcs[0] = arc(-1, i, ir.NoBlock)
				continue
			case ir.OpCall:
				if ci == nil || ci.Op != ir.OpCall || ci.Callee != pt.Callee || len(ci.Targets) != 1 {
					return nil, fmt.Errorf("b%d unit %d: pristine b%d calls proc %d, the compile does not", b.ID, u, o, pt.Callee)
				}
				next, err := resolve(u, i, ci.Targets[0], pt.Targets[0])
				if err != nil {
					return nil, err
				}
				un.kind, un.site = unitCall, int32(len(rp.callee))
				rp.callee = append(rp.callee, pt.Callee)
				un.arcs[0] = arc(next, i, ci.Targets[0])
				continue
			}
			succs := psuccs[o]
			if len(succs) == 0 {
				return nil, fmt.Errorf("b%d unit %d: pristine b%d's %s has no successor", b.ID, u, o, pt.Op)
			}
			if ci != nil && (ci.Op == ir.OpCall || ci.Op == ir.OpRet ||
				len(succs) > 1 && (ci.Op != pt.Op || len(ci.Targets) != len(pt.Targets))) {
				return nil, fmt.Errorf("b%d unit %d: control %s/%d does not mirror pristine b%d's %s/%d",
					b.ID, u, ci.Op, len(ci.Targets), o, pt.Op, len(pt.Targets))
			}
			switch len(succs) {
			case 1:
				un.kind = unitJump
			case 2:
				un.kind = unitBranch
			default:
				un.kind, un.site, un.narcs = unitSwitch, int32(len(rp.arcs)), int32(len(succs))
			}
			for k, s := range succs {
				next, target := int32(-1), ir.NoBlock
				// visit checks one compiled slot leading to s. A decision
				// names the successor, not the slot, so every slot to it
				// must lead to one place.
				visit := func(ct ir.BlockID) error {
					n, err := resolve(u, i, ct, s)
					if err != nil {
						return err
					}
					if next >= 0 && (n != next || ct != target) {
						return fmt.Errorf("b%d unit %d: slots to pristine b%d lead to different places", b.ID, u, s)
					}
					next, target = n, ct
					return nil
				}
				switch {
				case ci == nil:
					// No control instruction: the unit falls through.
					if err := visit(ir.NoBlock); err != nil {
						return nil, err
					}
				case len(succs) == 1:
					// A terminator with one successor may compile to any
					// jump whose every slot leads there (a degenerate br
					// becomes a jmp).
					for _, ct := range ci.Targets {
						if err := visit(ct); err != nil {
							return nil, err
						}
					}
				default:
					// Compiled slot k mirrors pristine slot k.
					for k, t := range pt.Targets {
						if t == s {
							if err := visit(ci.Targets[k]); err != nil {
								return nil, err
							}
						}
					}
				}
				if a := arc(next, i, target); un.kind == unitSwitch {
					rp.arcs = append(rp.arcs, a)
				} else {
					un.arcs[k] = a
				}
			}
		}
	}
	// Point every arc past the fall-through jumps it lands on. Such a
	// unit stays at the next unit of its block, so every chain ends.
	skipJumps := func(a *replayArc) {
		for a.unit >= 0 {
			v := &rp.units[a.unit]
			if v.kind != unitJump || v.arcs[0].edge >= 0 {
				return
			}
			a.skip += 1 + v.arcs[0].skip
			a.unit = v.arcs[0].unit
		}
	}
	skipJumps(&rp.entry)
	for u := range rp.units {
		un := &rp.units[u]
		skipJumps(&un.arcs[0])
		if un.kind == unitBranch {
			skipJumps(&un.arcs[1])
		}
	}
	for k := range rp.arcs {
		skipJumps(&rp.arcs[k])
	}
	rp.callN = make([]int64, len(rp.callee))
	return rp, nil
}

// replayFrame is a suspended caller: its procedure and its call unit.
type replayFrame struct {
	proc ir.ProcID
	unit int32
}

// walk runs main's activation over the unit tables, consuming tr's
// decisions and counting departures, call sites and activations. Each
// departure's fetch range goes to fetch (nil: none) in execution
// order: a call that ends its block departs when the callee returns,
// after the callee's own fetches, as in the engine. walk returns the
// stall cycles fetch charged.
func walk(procs []*replayProc, main ir.ProcID, tr *BranchTrace, fetch interp.FetchSink) (int64, error) {
	data := tr.data
	pos := 0
	left := tr.blocks // unit steps the recorded run allows
	var stall int64
	p := main
	rp := procs[p]
	rp.acts++
	cur := rp.entry.unit
	left -= int64(rp.entry.skip)
	stack := make([]replayFrame, 0, 64)
	for {
		if left <= 0 {
			return 0, fmt.Errorf("walk outruns the recorded run's %d blocks", tr.blocks)
		}
		left--
		un := &rp.units[cur]
		var a replayArc
		switch un.kind {
		case unitJump:
			a = un.arcs[0]
		case unitBranch:
			// A decision below interp.DecisionEscape is one byte.
			if pos == len(data) {
				return 0, fmt.Errorf("branch trace runs out after %d blocks", tr.blocks-left)
			}
			k := data[pos]
			if k > 1 {
				return 0, fmt.Errorf("decision %d at trace byte %d exceeds 2 successors", k, pos)
			}
			pos++
			a = un.arcs[k&1]
		case unitSwitch:
			k, n := interp.ReadDecision(data[pos:])
			switch {
			case n == 0:
				return 0, fmt.Errorf("branch trace runs out after %d blocks", tr.blocks-left)
			case n < 0:
				return 0, fmt.Errorf("malformed decision at trace byte %d", pos)
			case k >= int(un.narcs):
				return 0, fmt.Errorf("decision %d at trace byte %d exceeds %d successors", k, pos, un.narcs)
			}
			pos += n
			a = rp.arcs[un.site+int32(k)]
		case unitCall:
			rp.callN[un.site]++
			stack = append(stack, replayFrame{proc: p, unit: cur})
			p = rp.callee[un.site]
			rp = procs[p]
			rp.acts++
			cur = rp.entry.unit
			left -= int64(rp.entry.skip)
			continue
		default: // unitRet
			a = un.arcs[0]
		}
	depart:
		if a.edge >= 0 {
			d := &rp.deps[a.edge]
			d.n++
			if fetch != nil {
				stall += fetch.FetchRange(d.lo, d.hi)
			}
		}
		if a.unit < 0 {
			// A return: resume the caller, whose call departs now.
			if len(stack) == 0 {
				if pos != len(data) {
					return 0, fmt.Errorf("branch trace has %d bytes left over after main returns", len(data)-pos)
				}
				if left != 0 {
					return 0, fmt.Errorf("walk covers %d blocks, the recorded run %d", tr.blocks-left, tr.blocks)
				}
				return stall, nil
			}
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			p = f.proc
			rp = procs[p]
			a = rp.units[f.unit].arcs[0] // the call's continuation
			goto depart
		}
		left -= int64(a.skip)
		cur = a.unit
	}
}
