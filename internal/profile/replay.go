package profile

import (
	"encoding/binary"
	"fmt"

	"pathsched/internal/interp"
	"pathsched/internal/ir"
)

// Layout weights by replay (DESIGN.md §17). Pettis–Hansen placement
// wants the point profile of the *transformed* program on the training
// input. The training run has already made every branch decision, and
// a compiled block's UnitOrigins name the pristine block each of its
// units implements, so that profile follows from the decisions alone:
// Train records them once as a BranchTrace, and Replay walks a compile
// unit by unit against them. No compiled program is executed.

// BranchTrace is the branch-decision record of one training run: one
// distinct-successor index per executed Br or Switch that has at least
// two distinct targets, in execution order. An index is one byte; an
// index of 255 or more (only a terminator with more than 255 distinct
// successors can produce one) is the escape byte 255 followed by the
// uvarint of index-255. The trace also keeps the run's block count,
// which bounds a replay. It is immutable once Train returns, so any
// number of replays may read it at once.
type BranchTrace struct {
	data   []byte
	blocks int64 // pristine block executions of the recorded run
}

// traceEscape introduces a multi-byte decision index.
const traceEscape = 255

func (t *BranchTrace) put(k int) {
	if k < traceEscape {
		t.data = append(t.data, byte(k))
		return
	}
	t.data = append(t.data, traceEscape)
	t.data = binary.AppendUvarint(t.data, uint64(k-traceEscape))
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

// traceTee forwards a training run's batched edge stream to the path
// profiler and records the run's branch decisions on the way. Only a
// block whose terminator has two or more distinct successors decides
// anything; every other edge is implied by the CFG.
type traceTee struct {
	interp.BatchObserver
	tr    *BranchTrace
	succs [][][]ir.BlockID // per proc, per block: distinct successors, nil when < 2
}

func newTraceTee(prog *ir.Program, pp interp.BatchObserver) *traceTee {
	t := &traceTee{BatchObserver: pp, tr: &BranchTrace{}, succs: make([][][]ir.BlockID, len(prog.Procs))}
	for pid, p := range prog.Procs {
		ps := make([][]ir.BlockID, len(p.Blocks))
		for _, b := range p.Blocks {
			if ds := appendDistinct(nil, b.Terminator()); len(ds) >= 2 {
				ps[b.ID] = ds
			}
		}
		t.succs[pid] = ps
	}
	return t
}

// EdgeBatch records the decisions among recs, then forwards them.
func (t *traceTee) EdgeBatch(p ir.ProcID, recs []interp.EdgeRec) {
	ps := t.succs[p]
	for _, r := range recs {
		for k, s := range ps[r.From] {
			if s == r.To {
				t.tr.put(k)
				break
			}
		}
	}
	t.BatchObserver.EdgeBatch(p, recs)
}

// A replay step is what the pristine terminator of a unit's origin
// does.
const (
	stepBranch = iota // Jmp/Br/Switch: continue at a successor
	stepCall          // run a callee activation, then continue
	stepRet           // end the activation
)

// replayUnit is one unit of a compiled block.
type replayUnit struct {
	step uint8
	site int32 // stepCall: the call site, indexing replayProc.callee and callN
	// stepBranch: one arc per pristine distinct successor, which a
	// decision k selects (a single arc reads no decision). stepCall:
	// the continuation. stepRet: none.
	arcs []replayArc
}

// replayArc is where a unit's step leads.
type replayArc struct {
	unit int32 // index into replayProc.units
	edge int32 // the departure taken, or -1 when control stays in the block
}

// replayProc holds one compiled procedure's units and counters. The
// units of a block are adjacent, in unit order, and block 0's unit 0
// (the procedure's entry) comes first.
type replayProc struct {
	units []replayUnit
	// Departures in (block, instruction, target) order: the order the
	// engine's counters list edges in, so the profile built from them
	// matches PointProfiles entry for entry.
	from, to []ir.BlockID
	callee   []ir.ProcID // per call site

	edgeN []int64 // per departure
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
	if tr == nil {
		return nil, nil, fmt.Errorf("profile: replay: no branch trace")
	}
	if len(bin.Procs) != len(pristine.Procs) || bin.Main != pristine.Main {
		return nil, nil, fmt.Errorf("profile: replay: compile has %d procedures (main %d), pristine program %d (main %d)",
			len(bin.Procs), bin.Main, len(pristine.Procs), pristine.Main)
	}
	procs := make([]*replayProc, len(bin.Procs))
	for i, p := range bin.Procs {
		rp, err := replayTables(pristine.Procs[i], p)
		if err != nil {
			return nil, nil, fmt.Errorf("profile: replay: %s: %w", p.Name, err)
		}
		procs[i] = rp
	}
	if err := replayWalk(procs, bin.Main, tr); err != nil {
		return nil, nil, fmt.Errorf("profile: replay: %w", err)
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
		for e, n := range rp.edgeN {
			pe.block[rp.to[e]] += n
		}
		for e, n := range rp.edgeN {
			if n != 0 {
				pe.addEdge(rp.from[e], rp.to[e], n)
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
		// arc is the arc to unit next through compiled target t; a
		// departure gets the next edge counter.
		arc := func(next int32, t ir.BlockID) replayArc {
			if t == ir.NoBlock {
				return replayArc{unit: next, edge: -1}
			}
			rp.from = append(rp.from, b.ID)
			rp.to = append(rp.to, t)
			return replayArc{unit: next, edge: int32(len(rp.from) - 1)}
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
				un.step = stepRet
				continue
			case ir.OpCall:
				if ci == nil || ci.Op != ir.OpCall || ci.Callee != pt.Callee || len(ci.Targets) != 1 {
					return nil, fmt.Errorf("b%d unit %d: pristine b%d calls proc %d, the compile does not", b.ID, u, o, pt.Callee)
				}
				next, err := resolve(u, i, ci.Targets[0], pt.Targets[0])
				if err != nil {
					return nil, err
				}
				un.step, un.site = stepCall, int32(len(rp.callee))
				rp.callee = append(rp.callee, pt.Callee)
				un.arcs = []replayArc{arc(next, ci.Targets[0])}
				continue
			}
			succs := psuccs[o]
			if ci != nil && (ci.Op == ir.OpCall || ci.Op == ir.OpRet ||
				len(succs) > 1 && (ci.Op != pt.Op || len(ci.Targets) != len(pt.Targets))) {
				return nil, fmt.Errorf("b%d unit %d: control %s/%d does not mirror pristine b%d's %s/%d",
					b.ID, u, ci.Op, len(ci.Targets), o, pt.Op, len(pt.Targets))
			}
			un.step = stepBranch
			un.arcs = make([]replayArc, 0, len(succs))
			for _, s := range succs {
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
				un.arcs = append(un.arcs, arc(next, target))
			}
		}
	}
	rp.edgeN = make([]int64, len(rp.from))
	rp.callN = make([]int64, len(rp.callee))
	return rp, nil
}

// replayFrame is a suspended caller: its procedure and its call unit.
type replayFrame struct {
	proc ir.ProcID
	unit int32
}

// replayWalk runs main's activation over the unit tables, consuming
// tr's decisions and counting departures, call sites and activations.
func replayWalk(procs []*replayProc, main ir.ProcID, tr *BranchTrace) error {
	data := tr.data
	pos := 0
	left := tr.blocks // steps the recorded run allows
	p := main
	rp := procs[p]
	rp.acts++
	cur := int32(0)
	stack := make([]replayFrame, 0, 64)
	for {
		if left == 0 {
			return fmt.Errorf("walk outruns the training run's %d blocks", tr.blocks)
		}
		left--
		un := &rp.units[cur]
		var a replayArc
		switch un.step {
		case stepBranch:
			k := 0
			if nd := len(un.arcs); nd > 1 {
				if pos == len(data) {
					return fmt.Errorf("branch trace runs out after %d blocks", tr.blocks-left)
				}
				k = int(data[pos])
				pos++
				if k == traceEscape {
					v, n := binary.Uvarint(data[pos:])
					if n <= 0 || v >= uint64(nd) {
						return fmt.Errorf("malformed decision at trace byte %d", pos-1)
					}
					pos += n
					k += int(v)
				}
				if k >= nd {
					return fmt.Errorf("decision %d at trace byte %d exceeds %d successors", k, pos-1, nd)
				}
			}
			a = un.arcs[k]
		case stepCall:
			rp.callN[un.site]++
			stack = append(stack, replayFrame{proc: p, unit: cur})
			p = rp.callee[un.site]
			rp = procs[p]
			rp.acts++
			cur = 0
			continue
		default: // stepRet
			if len(stack) == 0 {
				if pos != len(data) {
					return fmt.Errorf("branch trace has %d bytes left over after main returns", len(data)-pos)
				}
				if left != 0 {
					return fmt.Errorf("walk covers %d blocks, the training run %d", tr.blocks-left, tr.blocks)
				}
				return nil
			}
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			p = f.proc
			rp = procs[p]
			a = rp.units[f.unit].arcs[0] // the call's continuation
		}
		if a.edge >= 0 {
			rp.edgeN[a.edge]++
		}
		cur = a.unit
	}
}
