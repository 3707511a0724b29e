// Package core implements the paper's primary contribution: superblock
// formation (trace selection + tail duplication + enlargement) driven
// either by classical edge profiles or by general path profiles.
//
// The edge-based path follows Hwu et al.'s superblock construction:
// mutual-most-likely trace selection, tail duplication, then the three
// separate enlarging optimizations — branch target expansion, loop
// peeling, and loop unrolling (paper §2.1). The path-based variant
// replaces selection with the most-likely-path-successor rule and
// replaces all three enlarging optimizations with the single unified
// path-driven enlargement of Figure 2 (§2.2).
//
// Formation runs on a clone of the input program and produces a
// transformed program whose blocks are partitioned into superblocks,
// each with a single entry at its head block. The companion compaction
// pass (internal/sched) later merges and schedules each superblock.
package core

import (
	"fmt"
	"sort"

	"pathsched/internal/ir"
	"pathsched/internal/profile"
)

// Method selects the formation strategy.
type Method int

const (
	// EdgeBased is classical superblock formation from point profiles.
	EdgeBased Method = iota
	// PathBased is the paper's formation from general path profiles.
	PathBased
)

func (m Method) String() string {
	if m == PathBased {
		return "path"
	}
	return "edge"
}

// Config parameterizes formation. The zero value is not useful; start
// from DefaultConfig. Matching the paper's methodology, the thresholds
// are shared between the two methods (§2.3: "We apply similar
// thresholds to both scheduling approaches").
type Config struct {
	Method Method

	// Edge must be set for EdgeBased; Path for PathBased.
	Edge *profile.EdgeProfile
	Path *profile.PathProfile

	// UnrollFactor bounds edge-based loop unrolling and peeling
	// (paper: 4 for "M4", 16 for "M16").
	UnrollFactor int

	// MaxLoopHeads bounds how many superblock-loop heads path-driven
	// enlargement may pass through (paper: 4, giving "P4").
	MaxLoopHeads int

	// StopNonLoopAtFirstHead is the "P4e" variant: enlargement of a
	// superblock that is not itself a superblock loop stops at the
	// first superblock head of any kind, so non-loop superblocks use
	// only tail-duplicated code (§4).
	StopNonLoopAtFirstHead bool

	// MinExecFreq gates enlargement: superblocks whose head executed
	// fewer times are left alone, bounding cold-code expansion.
	MinExecFreq int64

	// CompletionMin gates path-based enlargement: only superblocks
	// whose exact completion ratio (path frequency of the whole block
	// sequence over head frequency) reaches this value are enlarged —
	// the "user-specified high frequency" of §2.2.
	CompletionMin float64

	// ExpandProb gates edge-based branch target expansion: the final
	// branch must reach its most likely target with at least this
	// probability.
	ExpandProb float64

	// MaxSBInstrs caps a superblock's instruction count during
	// enlargement (the "preset threshold" of §2.2).
	MaxSBInstrs int

	// Parallelism is ignored: Form runs its procedures in order. The
	// field remains only because the benchmark harness
	// (cmd/bench/trace.go) still sets it.
	Parallelism int

	// GrowUpward enables upward trace growth for the path-based
	// selector: after downward growth stalls, the trace is extended
	// at its head by the most likely path *predecessor*. The paper's
	// implementation omitted this and predicted no noticeable benefit
	// (§2.2, footnote 2); the option exists to test that prediction.
	GrowUpward bool
}

// DefaultConfig returns the shared baseline parameters; callers then
// pick a Method, profiles, and scheme knobs.
func DefaultConfig() Config {
	return Config{
		UnrollFactor:  4,
		MaxLoopHeads:  4,
		MinExecFreq:   32,
		CompletionMin: 0.60,
		ExpandProb:    0.60,
		MaxSBInstrs:   512,
	}
}

// Superblock is a single-entry, multiple-exit sequence of blocks in the
// transformed program.
type Superblock struct {
	ID     int
	Proc   ir.ProcID
	Blocks []ir.BlockID // in trace order; Blocks[0] is the unique entry

	// IsLoop records whether the superblock's last block most likely
	// jumps back to its head (a "superblock loop", §2.1).
	IsLoop bool

	// CompletionRatio, for path-based formation, is the exact fraction
	// of entries that run the (depth-trimmed) block sequence to its
	// end — the quantity edge profiles can only bound (Figure 1).
	CompletionRatio float64

	// EntryFreq estimates how often control enters the head;
	// CompleteFreq, for path-based formation, is the exact frequency
	// with which the initially selected block sequence ran to
	// completion (both measured on the training input).
	EntryFreq    int64
	CompleteFreq int64
}

// Result is the outcome of formation.
type Result struct {
	// Prog is the transformed program (a private clone of the input).
	Prog *ir.Program
	// Superblocks lists every superblock per procedure; together they
	// partition each procedure's reachable blocks.
	Superblocks map[ir.ProcID][]*Superblock
	// Stats summarizes the work done, for reports and tests.
	Stats Stats
}

// Stats counts formation activity.
type Stats struct {
	Traces        int // initial traces selected
	TailDups      int // blocks cloned by tail duplication
	EnlargeCopies int // blocks cloned by enlargement
	Unrolled      int // edge-based: superblock loops unrolled
	Peeled        int // edge-based: superblock loops peeled
	Expanded      int // edge-based: branch target expansions
}

// Form runs superblock formation over every procedure of prog and
// returns the transformed program with its superblock partition. The
// input program is not modified.
func Form(prog *ir.Program, cfg Config) (*Result, error) {
	switch cfg.Method {
	case EdgeBased:
		if cfg.Edge == nil {
			return nil, fmt.Errorf("core: edge-based formation requires an edge profile")
		}
	case PathBased:
		if cfg.Path == nil {
			return nil, fmt.Errorf("core: path-based formation requires a path profile")
		}
	default:
		return nil, fmt.Errorf("core: unknown method %d", cfg.Method)
	}
	out := ir.CloneProgram(prog)
	res := &Result{Prog: out, Superblocks: map[ir.ProcID][]*Superblock{}}
	for _, p := range out.Procs {
		normalizeBranches(p)
		f := &former{cfg: cfg, proc: p, stats: &res.Stats}
		if err := f.run(); err != nil {
			return nil, fmt.Errorf("core: proc %s: %w", p.Name, err)
		}
		res.Superblocks[p.ID] = f.sbs
	}
	if err := ir.Verify(out); err != nil {
		return nil, fmt.Errorf("core: formation produced invalid IR: %w", err)
	}
	if err := CheckInvariants(res); err != nil {
		return nil, err
	}
	return res, nil
}

// normalizeBranches rewrites degenerate conditional branches whose two
// targets coincide into unconditional jumps, so that every block has at
// most one edge per distinct successor and superblock linkage stays
// unambiguous.
func normalizeBranches(p *ir.Proc) {
	for _, b := range p.Blocks {
		t := b.Terminator()
		if t.Op == ir.OpBr && t.Targets[0] == t.Targets[1] {
			*t = ir.Jmp(t.Targets[0])
		}
	}
}

// former carries per-procedure formation state: one procedure of the
// cloned program, counted into the result's stats.
type former struct {
	cfg   Config
	proc  *ir.Proc
	stats *Stats

	cfgGraph *ir.CFG // CFG of the *original* block set (pre-duplication)

	// traces are the initial selection over original blocks.
	traces [][]ir.BlockID

	// sbs collects this procedure's superblocks as they are built.
	sbs []*Superblock

	// headOf maps an original block id to the trace-derived superblock
	// it heads. Only initial traces contribute: the paper's "is s a
	// superblock head" tests are about the selected partition of the
	// original CFG, so tail-duplication clone chains do not register
	// here even though they are superblocks for compaction purposes.
	headOf map[ir.BlockID]*Superblock
}

// isHead reports whether original block o heads an initial trace.
func (f *former) isHead(o ir.BlockID) bool { return f.headOf[o] != nil }

// isCFGSucc reports whether to is an actual CFG successor of from in
// the original graph. A path profile parsed from a file may name block
// sequences that are not CFG walks, so formation must never trust a
// path extension that has no edge.
func (f *former) isCFGSucc(from, to ir.BlockID) bool {
	for _, s := range f.cfgGraph.Succs(from) {
		if s == to {
			return true
		}
	}
	return false
}

// isLoopHead reports whether original block o heads a superblock loop.
func (f *former) isLoopHead(o ir.BlockID) bool {
	sb := f.headOf[o]
	return sb != nil && sb.IsLoop
}

func (f *former) run() error {
	f.cfgGraph = ir.NewCFG(f.proc)
	f.selectTraces()
	f.stats.Traces += len(f.traces)
	f.initTraceSuperblocks()
	f.fixSideEntrances()
	f.indexHeads()
	f.markLoops()
	f.enlargeAll()
	// Path enlargement can stop with a copy still branching into the
	// middle of another superblock; restore the single-entry invariant.
	f.fixSideEntrances()
	f.annotate()
	return nil
}

// indexHeads records which original blocks head trace-derived
// superblocks; the enlargement rules consult this via origin ids.
// Trace superblocks keep their original head block (ids are preserved
// by selection), so head id == head origin identifies them.
func (f *former) indexHeads() {
	f.headOf = map[ir.BlockID]*Superblock{}
	for _, sb := range f.sbs {
		head := f.proc.Block(sb.Blocks[0])
		if head.Origin == head.ID {
			f.headOf[head.Origin] = sb
		}
	}
}

// annotate writes the final superblock partition into block metadata.
func (f *former) annotate() {
	for _, sb := range f.sbs {
		for i, bid := range sb.Blocks {
			b := f.proc.Block(bid)
			b.SBID = int32(sb.ID)
			b.SBIndex = int32(i)
		}
	}
}

// blockFreq returns the training-run execution frequency of an original
// block under whichever profile drives formation.
func (f *former) blockFreq(b ir.BlockID) int64 {
	if f.cfg.Method == PathBased {
		return f.cfg.Path.BlockFreq(f.proc.ID, b)
	}
	return f.cfg.Edge.BlockFreq(f.proc.ID, b)
}

// edgeFreq is the analogous edge-frequency query.
func (f *former) edgeFreq(from, to ir.BlockID) int64 {
	if f.cfg.Method == PathBased {
		return f.cfg.Path.EdgeFreq(f.proc.ID, from, to)
	}
	return f.cfg.Edge.EdgeFreq(f.proc.ID, from, to)
}

// CheckInvariants validates the formation result:
//
//   - every reachable block belongs to exactly one superblock;
//   - superblocks are single-entry: an edge may only target a
//     superblock head, except the unique fall-through edge from each
//     superblock block to its successor within the same superblock;
//   - within a superblock, block i+1's only predecessor is block i.
//
// It is exported because integration tests and the pipeline re-check
// invariants after every transformation step.
func CheckInvariants(res *Result) error {
	// Sorted procedure order so the first-reported violation is stable
	// run to run.
	pids := make([]ir.ProcID, 0, len(res.Superblocks))
	for pid := range res.Superblocks {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	for _, pid := range pids {
		sbs := res.Superblocks[pid]
		p := res.Prog.Proc(pid)
		// sbOf and idxOf place each block in its superblock, by block id.
		sbOf := make([]*Superblock, len(p.Blocks))
		idxOf := make([]int, len(p.Blocks))
		for _, sb := range sbs {
			for i, b := range sb.Blocks {
				if p.Block(b) == nil {
					return fmt.Errorf("core: %s: superblock %d names b%d, which does not exist", p.Name, sb.ID, b)
				}
				if sbOf[b] != nil {
					return fmt.Errorf("core: %s/b%d in two superblocks", p.Name, b)
				}
				sbOf[b], idxOf[b] = sb, i
			}
		}
		if entry := p.Entry().ID; sbOf[entry] == nil || idxOf[entry] != 0 {
			return fmt.Errorf("core: %s: procedure entry must head a superblock", p.Name)
		}
		g := ir.NewCFG(p)
		for _, b := range p.Blocks {
			if !g.Reachable(b.ID) {
				continue
			}
			if sbOf[b.ID] == nil {
				return fmt.Errorf("core: %s/b%d reachable but not in any superblock", p.Name, b.ID)
			}
			for _, s := range g.Succs(b.ID) {
				if sbOf[s] == nil {
					continue // target unreachable? impossible, but harmless
				}
				if idxOf[s] == 0 {
					continue // edges into heads are always fine
				}
				if sbOf[b.ID] != sbOf[s] || idxOf[b.ID] != idxOf[s]-1 {
					return fmt.Errorf("core: %s: edge b%d→b%d enters superblock %d mid-body",
						p.Name, b.ID, s, sbOf[s].ID)
				}
			}
		}
	}
	return nil
}
