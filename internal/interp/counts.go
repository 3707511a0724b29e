package interp

import (
	"encoding/binary"
	"math"

	"pathsched/internal/ir"
)

// This file turns the decoded engine's per-exit visit counters into
// exact control-flow profiles after the run completes ("counter-fused
// edge profiling"). The engine already tallies one counter per block
// departure for Result reconstruction (see exec.go); the decode-time
// exit classification (decode.go) resolves almost every exit slot to
// its single destination block, so the full edge profile — block entry
// frequencies, edge frequencies, call-site counts, procedure entry
// counts — is a post-hoc fold over those counters:
//
//   - block entry count  = Σ counts[i] over the block's slots (a block
//     entered is departed exactly once on a completed run; single-jump
//     chained blocks concentrate their tally at counts[lo], which is
//     the whole sum for their one-slot range);
//   - edge (b, target) via single-destination slot i = counts[i];
//   - edges via a multi-destination slot (a dBr with distinct targets,
//     a dSwitch with ≥2 distinct real destinations) come from the live
//     per-destination rows the counted run maintains;
//   - dCall site count = counts[call slot] (its continuation transfer
//     fires once per completed call); dCallFT executes without a
//     transfer, so its count is "times reached" = Σ counts[j] over the
//     later slots j ≥ i of its block (exactly one later exit fires per
//     pass through the slot);
//   - procedure entry count = Σ call-site counts into it, plus one for
//     main.
//
// Error paths abandon counters (RunCounted returns no EdgeCounts), so
// the equalities above need only hold for completed runs — the same
// contract flushCounts relies on.

// EdgeCounts is the control-flow side of a counted run (RunCounted):
// dense per-exit visit counters plus the live multi-destination rows,
// exposed as deterministic traversals over exact per-procedure block,
// edge, call and entry counts. Reconstructed profiles are identical —
// including serialized bytes — to what per-event counters would have
// gathered on the same run; internal/profile builds its EdgeProfile
// and call-graph counts from these traversals.
type EdgeCounts struct {
	eng       *Engine
	counts    [][]int64
	multi     [][][]int64
	decisions []byte
	entries   []int64
	calls     []CallCount
}

// CallCount is one (caller, callee) total over every executed call
// site, as a call-graph profiler would have counted it.
type CallCount struct {
	Caller, Callee ir.ProcID
	N              int64
}

func newEdgeCounts(e *Engine, counts [][]int64, multi [][][]int64, decisions []byte) *EdgeCounts {
	ec := &EdgeCounts{eng: e, counts: counts, multi: multi, decisions: decisions,
		entries: make([]int64, len(e.procs))}
	for pid := range e.procs {
		d := &e.procs[pid]
		c := counts[pid]
		for j := range d.blocks {
			db := &d.blocks[j]
			// One backward pass per block gives each slot's "times
			// reached" (the suffix sum of departures at or after it),
			// which is the dCallFT execution count.
			var reached int64
			for i := db.hi - 1; i >= db.lo; i-- {
				reached += c[i]
				var n int64
				switch d.code[i].op {
				case dCall:
					n = c[i]
				case dCallFT:
					n = reached
				default:
					continue
				}
				if n == 0 {
					continue
				}
				callee := d.calls[d.code[i].imm].callee
				ec.entries[callee] += n
				ec.calls = append(ec.calls, CallCount{
					Caller: d.id, Callee: e.procs[callee].id, N: n})
			}
		}
	}
	if main := e.prog.Main; int(main) >= 0 && int(main) < len(ec.entries) {
		ec.entries[main]++
	}
	return ec
}

// DecisionEscape introduces a decision index of 255 or more in a
// decision record (see Decisions).
const DecisionEscape = 255

// AppendDecision appends decision index k to a decision record: one
// byte below DecisionEscape, else DecisionEscape followed by the
// uvarint of k-DecisionEscape.
func AppendDecision(dst []byte, k int) []byte {
	if k < DecisionEscape {
		return append(dst, byte(k))
	}
	return binary.AppendUvarint(append(dst, DecisionEscape), uint64(k-DecisionEscape))
}

// ReadDecision decodes the decision at the head of a decision record:
// its index k and the n bytes it occupies, or n <= 0 when the record
// is empty (0) or malformed (-1) there.
func ReadDecision(rec []byte) (k, n int) {
	if len(rec) == 0 {
		return 0, 0
	}
	if rec[0] < DecisionEscape {
		return int(rec[0]), 1
	}
	v, w := binary.Uvarint(rec[1:])
	if w <= 0 || v > math.MaxInt32-DecisionEscape {
		return 0, -1
	}
	return DecisionEscape + int(v), 1 + w
}

// Decisions returns the run's branch decisions in execution order
// (AppendDecision's encoding): for every transfer through an exit slot
// with several possible destinations, the index of the destination it
// took among the slot's distinct destinations in decode order. On a
// pristine program, whose every such slot is a block's terminator, that
// is the index among the terminator's distinct targets in
// first-occurrence order, and every other transfer is implied by the
// CFG, so the record and the run's block count determine the run's
// whole block sequence.
func (ec *EdgeCounts) Decisions() []byte { return ec.decisions }

// NumProcs returns the number of procedure slots.
func (ec *EdgeCounts) NumProcs() int { return len(ec.eng.procs) }

// Entries returns how many activations of p began (call-site totals
// into p, plus one for main) — the number of BeginProc(p, ·) events a
// batched run delivers.
func (ec *EdgeCounts) Entries(p ir.ProcID) int64 { return ec.entries[p] }

// ForEachCall visits the executed (caller, callee) call-site totals in
// a deterministic order (caller, block, reverse slot).
func (ec *EdgeCounts) ForEachCall(fn func(caller, callee ir.ProcID, n int64)) {
	for _, c := range ec.calls {
		fn(c.Caller, c.Callee, c.N)
	}
}

// ForEachBlock visits p's executed blocks in block order with their
// entry counts.
func (ec *EdgeCounts) ForEachBlock(p ir.ProcID, fn func(b ir.BlockID, n int64)) {
	d := &ec.eng.procs[p]
	c := ec.counts[p]
	for j := range d.blocks {
		db := &d.blocks[j]
		var n int64
		for i := db.lo; i < db.hi; i++ {
			n += c[i]
		}
		if n != 0 {
			fn(db.id, n)
		}
	}
}

// ForEachEdge visits p's executed intra-procedure CFG edges with their
// counts in a deterministic order (block, exit slot, destination).
func (ec *EdgeCounts) ForEachEdge(p ir.ProcID, fn func(from, to ir.BlockID, n int64)) {
	d := &ec.eng.procs[p]
	c := ec.counts[p]
	var rows [][]int64
	if ec.multi != nil {
		rows = ec.multi[p]
	}
	for j := range d.blocks {
		db := &d.blocks[j]
		from := db.id
		for i := db.lo; i < db.hi; i++ {
			if mi := d.multiIdx[i]; mi >= 0 {
				ts := d.multiTargets[mi]
				row := rows[mi]
				for k, t := range ts {
					// Out-of-range destinations only occur on runs
					// that errored, whose counters are abandoned; the
					// guards keep even that path panic-free.
					if row[k] != 0 && uint32(t) < uint32(len(d.blocks)) {
						fn(from, d.blocks[t].id, row[k])
					}
				}
			} else if t := d.exitTarget[i]; c[i] != 0 && uint32(t) < uint32(len(d.blocks)) {
				fn(from, d.blocks[t].id, c[i])
			}
		}
	}
}
