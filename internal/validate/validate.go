// Package validate is a per-procedure symbolic translation validator:
// given the pristine input program and the transformed (formed,
// compacted, allocated) output the pipeline produced from it, it
// proves the two semantically equivalent, procedure by procedure —
// independently of every pass that did the transforming.
//
// # How it proves equivalence
//
// Compaction leaves, on every merged block, the formation metadata
// ir.Block.UnitOrigins: the pristine blocks of the trace the merged
// block implements, in trace order. The validator symbolically
// co-executes each merged block against that pristine trace over one
// shared hash-consed expression DAG (graph.go), normalizing the way
// value numbering does (canonical operand order via sched.Commutative,
// immediate forms folded onto register forms, constant folding), so
// that value equivalence reduces to node identity. Memory is a
// store/select term, calls havoc memory and their result with
// fresh symbols aligned by call sequence number.
//
// Along the co-execution it requires:
//
//   - identical observable effect sequences: stores and calls form one
//     ordered stream, emits and calls another (the scheduler orders the
//     two streams internally but never emits relative to stores, so
//     comparing them interleaved would reject legal schedules), with
//     per-exit prefix counts matching — an effect may never migrate
//     across a branch;
//   - branch-condition equivalence and slot-for-slot target
//     correspondence at every exit, each off-trace target's own trace
//     metadata naming the pristine block the original branch targets;
//   - at every exit cut, equality of the register values the
//     continuation depends on, and equality of the memory state.
//
// "Depends on" is computed, not approximated by liveness: a backward
// fixpoint propagates, from every compared expression (effects,
// conditions, memory, return values) through the exit cuts, the set of
// entry registers each block's verdict rests on. A register that
// diverges at a cut is only a failure if some chain of cuts carries
// its value into an observable — exactly the soundness requirement of
// cut-point translation validation, with none of the false positives
// a syntactic liveness union would produce on clone-refined traces.
//
// Loops need no unrolling: every merged block is validated once from a
// fully symbolic entry state, so the proof covers all executions,
// including all loop iterations (the cut into a loop head re-enters
// the same validated segment).
//
// # What it does not prove
//
// Fault behaviour of speculated loads is out of scope: a load hoisted
// above its home branch executes on paths the original never ran it
// on, and the structural checker (check.Schedules) verifies such loads
// carry the non-excepting Spec flag. The validator proves the hoisted
// value cannot leak into any observable on those paths — the
// complementary semantic half of the speculation rule. Side-effecting
// instructions never speculate: the effect streams pin them between
// their neighbouring exits.
//
// # Verdicts
//
// Each procedure gets one Verdict: Proved, Failed (with Issues naming
// proc, block, and instruction), or Bounded when a budget (trace
// depth, exit-cut count, expression nodes) or missing metadata stopped
// the proof. Bounded is counted explicitly and reported — never
// silently passed — and the structural checks remain the fallback
// gate for those procedures.
package validate

import (
	"fmt"
	"math/bits"

	"pathsched/internal/ir"
)

// NoInstr marks an Issue not tied to one instruction (mirrors
// check.NoInstr).
const NoInstr = -1

// Issue is one semantic divergence between the transformed program and
// its pristine original. Proc, Block, and Instr locate the offending
// construct in the transformed program (Block ir.NoBlock / Instr
// NoInstr when proc-level).
type Issue struct {
	Proc  string
	Block ir.BlockID
	Instr int
	Msg   string
}

func (is Issue) String() string {
	s := "validate:"
	if is.Proc != "" {
		s += fmt.Sprintf(" proc %q", is.Proc)
	}
	if is.Block != ir.NoBlock {
		s += fmt.Sprintf(" block b%d", is.Block)
	}
	if is.Instr != NoInstr {
		s += fmt.Sprintf(" instr %d", is.Instr)
	}
	return s + ": " + is.Msg
}

// Verdict is the per-procedure outcome.
type Verdict uint8

const (
	// Proved: every block's trace co-execution matched and the
	// cut-point fixpoint found no observable divergence.
	Proved Verdict = iota
	// Bounded: a budget or missing metadata stopped the proof; the
	// procedure falls back to the structural checks.
	Bounded
	// Failed: at least one Issue — the transformed procedure is not
	// equivalent to its original.
	Failed
)

func (v Verdict) String() string {
	switch v {
	case Proved:
		return "proved"
	case Bounded:
		return "bounded"
	case Failed:
		return "failed"
	}
	return fmt.Sprintf("verdict(%d)", uint8(v))
}

// Options bounds the proof effort. The zero value selects defaults.
type Options struct {
	// DepthBudget caps the constituent (pristine trace) blocks
	// symbolically executed per merged block; a deeper superblock makes
	// the procedure Bounded. 0 means 256.
	DepthBudget int
	// PathBudget caps the exit cuts checked per procedure. 0 means 4096.
	PathBudget int
	// NodeBudget caps the expression-DAG nodes allocated per procedure.
	// 0 means 1<<20.
	NodeBudget int
}

// Normalized resolves zero fields to their defaults.
func (o Options) Normalized() Options {
	if o.DepthBudget == 0 {
		o.DepthBudget = 256
	}
	if o.PathBudget == 0 {
		o.PathBudget = 4096
	}
	if o.NodeBudget == 0 {
		o.NodeBudget = 1 << 20
	}
	return o
}

// ProcReport is one procedure's outcome.
type ProcReport struct {
	Proc    string
	Verdict Verdict
	// Reason explains a Bounded verdict ("" otherwise).
	Reason string
	// Blocks is the number of merged blocks co-executed, Cuts the exit
	// cuts checked, Nodes the expression nodes allocated.
	Blocks, Cuts, Nodes int
}

// Stats aggregates verdicts for reporting (the -validate table, cached
// compile values).
type Stats struct {
	Procs   int
	Proved  int
	Bounded int
	Failed  int
	// Cuts counts the exit cuts checked across all proved/failed procs.
	Cuts int64
}

// Add accumulates t into s.
func (s *Stats) Add(t Stats) {
	s.Procs += t.Procs
	s.Proved += t.Proved
	s.Bounded += t.Bounded
	s.Failed += t.Failed
	s.Cuts += t.Cuts
}

func (s Stats) String() string {
	return fmt.Sprintf("%d procs: %d proved, %d bounded, %d failed (%d cuts)",
		s.Procs, s.Proved, s.Bounded, s.Failed, s.Cuts)
}

// Report is the outcome of validating one (pristine, transformed)
// program pair.
type Report struct {
	Procs  []ProcReport
	Issues []Issue
	Stats  Stats
}

// Program validates transformed against pristine and reports per-proc
// verdicts, procedure by procedure in order (Proc). It never mutates
// either program.
func Program(pristine, transformed *ir.Program, opts Options) *Report {
	rep := &Report{}
	if len(pristine.Procs) != len(transformed.Procs) {
		rep.Issues = append(rep.Issues, Issue{Block: ir.NoBlock, Instr: NoInstr,
			Msg: fmt.Sprintf("procedure count changed: original %d, transformed %d", len(pristine.Procs), len(transformed.Procs))})
		return rep
	}
	var scr Scratch
	for i, tp := range transformed.Procs {
		pr, issues := Proc(pristine.Procs[i], tp, opts, &scr)
		rep.Procs = append(rep.Procs, pr)
		rep.Issues = append(rep.Issues, issues...)
		rep.Stats.Count(pr)
	}
	return rep
}

// Proc validates one transformed procedure against its pristine
// counterpart and returns its report and issues (nil unless the
// verdict is Failed). It reads nothing outside the two procedures, so
// equal transformed procedures proved against the same pristine one
// get the same verdict. scr is reused working memory, as for
// Program's procedures; it never changes the outcome.
func Proc(pristine, transformed *ir.Proc, opts Options, scr *Scratch) (ProcReport, []Issue) {
	var issues []Issue
	if pristine.Name != transformed.Name {
		issues = append(issues, Issue{Proc: transformed.Name, Block: ir.NoBlock, Instr: NoInstr,
			Msg: fmt.Sprintf("procedure %d renamed: original %q", transformed.ID, pristine.Name)})
		return ProcReport{Proc: transformed.Name, Verdict: Failed}, issues
	}
	pr := validateProc(pristine, transformed, opts.Normalized(), &issues, scr)
	return pr, issues
}

// Count adds one procedure's verdict to s: proved and failed
// procedures contribute their cuts, Bounded ones none.
func (s *Stats) Count(pr ProcReport) {
	s.Procs++
	switch pr.Verdict {
	case Proved:
		s.Proved++
		s.Cuts += int64(pr.Cuts)
	case Bounded:
		s.Bounded++
	case Failed:
		s.Failed++
		s.Cuts += int64(pr.Cuts)
	}
}

// cut is one (exit → successor) edge of the cut-point decomposition:
// per register, whether the transformed value at the exit equals the
// original value at the corresponding branch, and which entry
// registers that pair of values depends on.
//
// Only registers some side of the region wrote are stored explicitly
// (`explicit`); every other register holds its entry value on both
// sides, so its pair is equal and depends exactly on itself. Keeping
// that identity implicit makes a cut's size and fixpoint cost scale
// with the registers a region touches, not with the procedure's
// (post-renaming, often thousands-wide) register space.
type cut struct {
	instr    int        // transformed exit instruction
	target   ir.BlockID // transformed successor block
	explicit []uint64   // bitset: registers stored explicitly below
	eq       []uint64   // bitset over explicit: value pair matches
	// pairVars packs one `words`-wide entry-register dependence set per
	// explicit register, in ascending register order.
	pairVars []uint64
}

// Scratch pools the allocation-heavy per-block state (expression
// graph, two symbolic machines) across the blocks and procedures of
// one Program call, or of the Proc calls sharing it. The zero value is
// ready to use. Each block still gets a logically fresh graph —
// entry nodes are region-relative, so sharing live nodes across
// regions would be unsound — but the backing arrays and the memo map
// survive, which matters because a big procedure resets this once per
// block rather than re-growing maps from empty.
type Scratch struct {
	g      graph
	ts, ps symState
}

// procV is the working state of one procedure validation.
type procV struct {
	pp, tp *ir.Proc
	opts   Options
	issues *[]Issue
	scr    *Scratch

	nregs, words int
	// origin[b] is transformed block b's first pristine trace block
	// (UnitOrigins[0]), ir.NoBlock when metadata is missing.
	origin []ir.BlockID

	cuts  [][]cut    // per transformed block
	base  [][]uint64 // per transformed block: entry regs its comparisons read
	nodes int
	ncuts int
}

func (pv *procV) bad(block ir.BlockID, instr int, format string, args ...any) {
	*pv.issues = append(*pv.issues, Issue{
		Proc: pv.tp.Name, Block: block, Instr: instr,
		Msg: fmt.Sprintf(format, args...),
	})
}

func validateProc(pp, tp *ir.Proc, opts Options, issues *[]Issue, scr *Scratch) ProcReport {
	pr := ProcReport{Proc: tp.Name}
	nregs := max(int(ir.PhysRegs), maxRegIndex(pp)+1, maxRegIndex(tp)+1)
	pv := &procV{
		pp: pp, tp: tp, opts: opts, issues: issues, scr: scr,
		nregs: nregs, words: (nregs + 63) / 64,
		origin: make([]ir.BlockID, len(tp.Blocks)),
		cuts:   make([][]cut, len(tp.Blocks)),
		base:   make([][]uint64, len(tp.Blocks)),
	}
	before := len(*issues)

	// Metadata pass: a compiled procedure must be fully scheduled with
	// trace metadata; anything less is out of the validator's domain
	// and falls back to the structural checks as an explicit Bounded.
	for _, b := range tp.Blocks {
		if b.Cycles == nil || b.UnitOrigins == nil {
			pr.Verdict = Bounded
			pr.Reason = fmt.Sprintf("block b%d lacks schedule or trace metadata", b.ID)
			return pr
		}
		if len(b.UnitOrigins) != int(b.SBSize) {
			pv.bad(b.ID, NoInstr, "trace metadata names %d units, SBSize is %d", len(b.UnitOrigins), b.SBSize)
		}
		pv.origin[b.ID] = ir.NoBlock
		for u, oid := range b.UnitOrigins {
			if oid < 0 || int(oid) >= len(pp.Blocks) {
				pv.bad(b.ID, NoInstr, "trace unit %d names original block b%d, which does not exist", u, oid)
			} else if u == 0 {
				pv.origin[b.ID] = oid
			}
		}
	}
	if len(*issues) > before {
		pr.Verdict = Failed
		return pr
	}
	if len(tp.Blocks) > 0 && len(pp.Blocks) > 0 && pv.origin[tp.Blocks[0].ID] != pp.Blocks[0].ID {
		pv.bad(tp.Blocks[0].ID, NoInstr, "entry block implements original b%d, want the original entry b%d",
			pv.origin[tp.Blocks[0].ID], pp.Blocks[0].ID)
		pr.Verdict = Failed
		return pr
	}

	// Per-block symbolic co-execution.
	for _, b := range tp.Blocks {
		if len(b.UnitOrigins) > pv.opts.DepthBudget {
			pr.Verdict = Bounded
			pr.Reason = fmt.Sprintf("block b%d trace depth %d exceeds budget %d", b.ID, len(b.UnitOrigins), pv.opts.DepthBudget)
			pr.Blocks, pr.Cuts, pr.Nodes = blocksSoFar(pv, b.ID), pv.ncuts, pv.nodes
			return pr
		}
		pv.validateBlock(b)
		if pv.nodes > pv.opts.NodeBudget {
			pr.Verdict = Bounded
			pr.Reason = fmt.Sprintf("expression nodes %d exceed budget %d", pv.nodes, pv.opts.NodeBudget)
			pr.Blocks, pr.Cuts, pr.Nodes = blocksSoFar(pv, b.ID)+1, pv.ncuts, pv.nodes
			return pr
		}
		if pv.ncuts > pv.opts.PathBudget {
			pr.Verdict = Bounded
			pr.Reason = fmt.Sprintf("exit cuts %d exceed budget %d", pv.ncuts, pv.opts.PathBudget)
			pr.Blocks, pr.Cuts, pr.Nodes = blocksSoFar(pv, b.ID)+1, pv.ncuts, pv.nodes
			return pr
		}
	}
	pr.Blocks, pr.Cuts, pr.Nodes = len(tp.Blocks), pv.ncuts, pv.nodes
	if len(*issues) > before {
		pr.Verdict = Failed
		return pr
	}

	// Cut-point fixpoint: propagate, backwards through the cuts, the
	// entry registers each block's comparisons depend on, then demand
	// value equality exactly there.
	pv.checkCuts()
	if len(*issues) > before {
		pr.Verdict = Failed
		return pr
	}
	pr.Verdict = Proved
	return pr
}

// blocksSoFar counts the blocks preceding id in the proc's block list
// (for Bounded progress reporting).
func blocksSoFar(pv *procV, id ir.BlockID) int {
	n := 0
	for _, b := range pv.tp.Blocks {
		if b.ID == id {
			break
		}
		n++
	}
	return n
}

// checkCuts runs the dependence fixpoint over the recorded cuts and
// reports every register that diverges at a cut some observable
// depends on.
func (pv *procV) checkCuts() {
	need := make([][]uint64, len(pv.tp.Blocks))
	for i := range need {
		need[i] = make([]uint64, pv.words)
		if pv.base[i] != nil {
			copy(need[i], pv.base[i])
		}
	}
	for changed := true; changed; {
		changed = false
		for bi := range pv.cuts {
			for ci := range pv.cuts[bi] {
				c := &pv.cuts[bi][ci]
				tgt, nd := need[c.target], need[bi]
				// Implicit registers hold their entry value on both sides:
				// the continuation's need passes through unchanged.
				for i := range nd {
					if imp := tgt[i] &^ c.explicit[i]; nd[i]|imp != nd[i] {
						nd[i] |= imp
						changed = true
					}
				}
				idx := 0
				for i, word := range c.explicit {
					for word != 0 {
						r := i<<6 + bits.TrailingZeros64(word)
						word &= word - 1
						if bsHas(tgt, r) && bsUnionInto(nd, c.pairVars[idx*pv.words:(idx+1)*pv.words]) {
							changed = true
						}
						idx++
					}
				}
			}
		}
	}
	for bi := range pv.cuts {
		for ci := range pv.cuts[bi] {
			c := &pv.cuts[bi][ci]
			tgt := need[c.target]
			for i, word := range c.explicit {
				for word != 0 {
					r := i<<6 + bits.TrailingZeros64(word)
					word &= word - 1
					if bsHas(tgt, r) && !bsHas(c.eq, r) {
						pv.bad(pv.tp.Blocks[bi].ID, c.instr,
							"register r%d differs at the exit to b%d (original b%d): the continuation depends on a value the transformed program computes differently",
							r, c.target, pv.origin[c.target])
					}
				}
			}
		}
	}
}

// maxRegIndex returns the highest register index mentioned anywhere in
// p (operands and call args), for sizing the symbolic register file.
func maxRegIndex(p *ir.Proc) int {
	hi := 0
	for _, b := range p.Blocks {
		for i := range b.Instrs {
			ins := &b.Instrs[i]
			hi = max(hi, int(ins.Dst), int(ins.Src1), int(ins.Src2))
			for _, a := range ins.Args {
				hi = max(hi, int(a))
			}
		}
	}
	return hi
}

// --- bitset helpers ---

func bsHas(s []uint64, i int) bool { return s[i>>6]&(1<<uint(i&63)) != 0 }

// bsUnionInto ors src into dst and reports whether dst changed.
func bsUnionInto(dst, src []uint64) bool {
	changed := false
	for i := range dst {
		if n := dst[i] | src[i]; n != dst[i] {
			dst[i] = n
			changed = true
		}
	}
	return changed
}
