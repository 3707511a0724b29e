package check

import (
	"fmt"
	"sort"

	"pathsched/internal/ir"
	"pathsched/internal/profile"
)

// EdgeFlow verifies Kirchhoff's law over an edge profile gathered from
// a completed run of prog: for every block, executions equal the edge
// traversals into it (plus procedure entries for the entry block);
// edge traversals out of it equal its executions, except that a
// ret-terminated block may keep the balance as returns — and summed
// over the procedure those returns must equal the entries. A corrupted
// or miscounted profile breaks one of these identities at the block
// where it happened.
func EdgeFlow(prog *ir.Program, ep *profile.EdgeProfile) []Violation {
	var out []Violation
	for pid, p := range prog.Procs {
		pid := ir.ProcID(pid)
		if int(pid) >= ep.NumProcs() {
			break
		}
		bad := func(b ir.BlockID, format string, args ...any) {
			out = append(out, Violation{
				Proc: p.Name, Block: b, Instr: NoInstr,
				Msg: fmt.Sprintf(format, args...),
			})
		}
		entries := ep.Entries(pid)
		var retSlack int64
		for _, b := range p.Blocks {
			freq := ep.BlockFreq(pid, b.ID)
			var inflow, outflow int64
			ep.ForEachPred(pid, b.ID, func(_ ir.BlockID, n int64) { inflow += n })
			ep.ForEachSucc(pid, b.ID, func(_ ir.BlockID, n int64) { outflow += n })
			want := inflow
			if b.ID == p.Entry().ID {
				want += entries
			}
			if freq != want {
				bad(b.ID, "flow into block: executed %d times but inflow is %d (%d edge + %d entry)",
					freq, want, inflow, want-inflow)
			}
			if b.Terminator().Op == ir.OpRet {
				if outflow > freq {
					bad(b.ID, "flow out of ret block: outflow %d exceeds %d executions", outflow, freq)
				} else {
					retSlack += freq - outflow
				}
			} else if outflow != freq {
				bad(b.ID, "flow out of block: executed %d times but outflow is %d", freq, outflow)
			}
		}
		if retSlack != entries {
			bad(ir.NoBlock, "returns %d != entries %d", retSlack, entries)
		}
	}
	return out
}

// PathFlow verifies the internal consistency of a path profile: every
// recorded sequence is bounded by each of its adjacent-pair
// frequencies (a path cannot run more often than any edge inside it —
// the prefix-bound that makes the paper's Figure 1 comparison
// meaningful), and the one-block extensions of a sequence cannot sum
// to more than the sequence itself ran. When ep is given, it must be
// the edge profile of the *same* run: the two profiles are then two
// codings of one event stream, so their block frequencies must agree
// exactly — and their edge frequencies too, when the depth bound
// cannot truncate a two-block window.
//
// The pair bound is checked only against each indexed sequence's
// *first* pair, which covers every interior pair transitively: the
// suffix index gives Freq(seq) ≤ Freq(seq[i:]) by construction (every
// window counting toward seq also counts toward its suffixes), and
// seq[i:] is itself indexed, so its own first-pair check bounds
// Freq(seq[i:]) by Freq(seq[i], seq[i+1]). The frozen profile hands
// each sequence over with its extension sum already linked, so the
// whole check is one sweep plus one two-block probe per sequence.
func PathFlow(prog *ir.Program, pp *profile.PathProfile, ep *profile.EdgeProfile) []Violation {
	var out []Violation
	for pid, p := range prog.Procs {
		pid := ir.ProcID(pid)
		if int(pid) >= pp.NumProcs() {
			break
		}
		bad := func(b ir.BlockID, format string, args ...any) {
			out = append(out, Violation{
				Proc: p.Name, Block: b, Instr: NoInstr,
				Msg: fmt.Sprintf(format, args...),
			})
		}
		pp.ForEachSeq(pid, func(seq []ir.BlockID, n, ext int64) {
			if len(seq) >= 2 {
				if pn := pp.Freq(pid, seq[:2]); n > pn {
					bad(seq[0], "path %s ran %d times, but its edge %s only %d",
						profile.FmtSeq(seq), n, profile.FmtSeq(seq[:2]), pn)
				}
			}
			if ext > n {
				bad(seq[0], "path %s ran %d times but its extensions sum to %d",
					profile.FmtSeq(seq), n, ext)
			}
			if ep != nil && len(seq) == 2 && pp.Depth() >= 2 {
				if en := ep.EdgeFreq(pid, seq[0], seq[1]); en != n {
					bad(seq[0], "edge %s: path profile says %d, edge profile says %d",
						profile.FmtSeq(seq), n, en)
				}
			}
		})
		if ep != nil {
			for _, b := range p.Blocks {
				if pn, en := pp.BlockFreq(pid, b.ID), ep.BlockFreq(pid, b.ID); pn != en {
					bad(b.ID, "block frequency: path profile says %d, edge profile says %d", pn, en)
				}
				if pp.Depth() >= 2 {
					ep.ForEachSucc(pid, b.ID, func(to ir.BlockID, en int64) {
						if pn := pp.EdgeFreq(pid, b.ID, to); pn != en {
							bad(b.ID, "edge b%d→b%d: edge profile says %d, path profile says %d", b.ID, to, en, pn)
						}
					})
				}
			}
		}
	}
	// Order the findings for deterministic diagnostics.
	sort.Slice(out, func(i, j int) bool {
		if out[i].Proc != out[j].Proc {
			return out[i].Proc < out[j].Proc
		}
		if out[i].Block != out[j].Block {
			return out[i].Block < out[j].Block
		}
		return out[i].Msg < out[j].Msg
	})
	return out
}
