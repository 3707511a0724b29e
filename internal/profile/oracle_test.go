package profile

import (
	"testing"

	"pathsched/internal/interp"
	"pathsched/internal/ir"
)

// The oracles in this file consume a run one event at a time, the way
// the seed interpreter delivered it: EnterProc when an activation
// begins, Edge(prev, cur) and Block(cur) for each block entered (no
// Edge for the entry block), and ExitProc on return. perEvent turns
// the engine's batches back into that stream, so each oracle checks
// the production profilers against the same run they observe.

// eventObserver is the per-event stream the oracles consume.
type eventObserver interface {
	EnterProc(p ir.ProcID, entry ir.BlockID)
	ExitProc(p ir.ProcID)
	Edge(p ir.ProcID, from, to ir.BlockID)
	Block(p ir.ProcID, b ir.BlockID)
}

// perEvent adapts a batch stream to per-event calls on each of its
// observers: BeginProc ≡ EnterProc + Block(entry), each EdgeRec ≡
// Edge + Block(To), EndProc ≡ ExitProc.
type perEvent []eventObserver

func (pe perEvent) BeginProc(p ir.ProcID, entry ir.BlockID) {
	for _, o := range pe {
		o.EnterProc(p, entry)
		o.Block(p, entry)
	}
}

func (pe perEvent) EdgeBatch(p ir.ProcID, recs []interp.EdgeRec) {
	for _, r := range recs {
		for _, o := range pe {
			o.Edge(p, r.From, r.To)
			o.Block(p, r.To)
		}
	}
}

func (pe perEvent) EndProc(p ir.ProcID) {
	for _, o := range pe {
		o.ExitProc(p)
	}
}

// fanout delivers one batch stream to several observers, so one run
// feeds the profiler under test and the oracles alike.
type fanout []interp.BatchObserver

func (f fanout) BeginProc(p ir.ProcID, entry ir.BlockID) {
	for _, o := range f {
		o.BeginProc(p, entry)
	}
}

func (f fanout) EdgeBatch(p ir.ProcID, recs []interp.EdgeRec) {
	for _, o := range f {
		o.EdgeBatch(p, recs)
	}
}

func (f fanout) EndProc(p ir.ProcID) {
	for _, o := range f {
		o.EndProc(p)
	}
}

// edgeCounter is the per-event reference for the edge profile that
// EdgeProfileFromCounts reconstructs from engine counters and Replay
// derives from a branch trace: it counts activations, block entries and
// edge traversals one event at a time.
type edgeCounter struct{ e *EdgeProfile }

func newEdgeCounter(prog *ir.Program) *edgeCounter { return &edgeCounter{newEdgeProfile(prog)} }

func (c *edgeCounter) EnterProc(p ir.ProcID, entry ir.BlockID) { c.e.procs[p].entries++ }
func (c *edgeCounter) ExitProc(p ir.ProcID)                    {}
func (c *edgeCounter) Edge(p ir.ProcID, from, to ir.BlockID)   { c.e.procs[p].addEdge(from, to, 1) }
func (c *edgeCounter) Block(p ir.ProcID, b ir.BlockID)         { c.e.procs[p].block[b]++ }

// Profile returns the counted profile; it stays live.
func (c *edgeCounter) Profile() *EdgeProfile { return c.e }

// OraclePathProfiler is a deliberately simple reference implementation
// of general-path profiling: it keeps an explicit ring of recent blocks
// per activation and, at every step, increments the count of *every*
// suffix of the current window directly. It does O(window length) work
// per executed block, so it is only suitable for tests — where it
// serves as the ground truth the efficient PathProfiler is checked
// against.
type OraclePathProfiler struct {
	cfg   PathConfig
	procs []*oracleProc
	stack []*oracleFrame
}

type oracleProc struct {
	condBr []bool
	freq   map[string]int64
	// windows counts every window recorded (one per block entered);
	// distinct holds each distinct window.
	windows  int64
	distinct map[string]bool
}

type oracleFrame struct {
	proc     ir.ProcID
	window   []ir.BlockID
	branches int
}

// NewOraclePathProfiler returns the reference profiler for prog.
func NewOraclePathProfiler(prog *ir.Program, cfg PathConfig) *OraclePathProfiler {
	cfg = cfg.Normalized()
	op := &OraclePathProfiler{cfg: cfg, procs: make([]*oracleProc, len(prog.Procs))}
	for i, p := range prog.Procs {
		op.procs[i] = &oracleProc{condBr: condBrMap(p), freq: map[string]int64{}, distinct: map[string]bool{}}
	}
	return op
}

func (op *OraclePathProfiler) EnterProc(p ir.ProcID, entry ir.BlockID) {
	op.stack = append(op.stack, &oracleFrame{proc: p})
}

func (op *OraclePathProfiler) ExitProc(p ir.ProcID) {
	if n := len(op.stack); n > 0 {
		op.stack = op.stack[:n-1]
	}
}

func (op *OraclePathProfiler) Edge(p ir.ProcID, from, to ir.BlockID) {}

func (op *OraclePathProfiler) Block(p ir.ProcID, b ir.BlockID) {
	fr := op.stack[len(op.stack)-1]
	st := op.procs[p]
	fr.window = append(fr.window, b)
	if st.condBr[b] {
		fr.branches++
	}
	for fr.branches > op.cfg.Depth || len(fr.window) > op.cfg.MaxBlocks {
		if st.condBr[fr.window[0]] {
			fr.branches--
		}
		fr.window = fr.window[1:]
	}
	st.windows++
	st.distinct[seqKey(fr.window)] = true
	// Count every suffix of the current window: by definition, f(q) is
	// the number of trace positions whose last |q| blocks equal q.
	for s := 0; s < len(fr.window); s++ {
		st.freq[seqKey(fr.window[s:])]++
	}
}

// Freq returns the exact dynamic occurrence count of seq in p.
func (op *OraclePathProfiler) Freq(p ir.ProcID, seq []ir.BlockID) int64 {
	return op.procs[p].freq[seqKey(seq)]
}

// requireOracleProfile fails unless pf indexes exactly the sequences op
// counted, each with op's count, and records op's window totals.
func requireOracleProfile(t *testing.T, ctx string, pf *PathProfile, op *OraclePathProfiler) {
	t.Helper()
	if pf.NumProcs() != len(op.procs) {
		t.Fatalf("%s: %d procs, oracle %d", ctx, pf.NumProcs(), len(op.procs))
	}
	for pid, st := range op.procs {
		p := ir.ProcID(pid)
		seqs := 0
		pf.ForEachSeq(p, func(seq []ir.BlockID, n, _ int64) {
			seqs++
			if want := st.freq[seqKey(seq)]; n != want {
				t.Fatalf("%s: proc %d: Freq(%s) = %d, oracle %d", ctx, pid, FmtSeq(seq), n, want)
			}
		})
		if seqs != len(st.freq) {
			t.Fatalf("%s: proc %d: %d indexed sequences, oracle counted %d", ctx, pid, seqs, len(st.freq))
		}
		if w, d := pf.Windows(p); w != st.windows || d != len(st.distinct) {
			t.Fatalf("%s: proc %d: windows (%d, %d distinct), oracle (%d, %d)",
				ctx, pid, w, d, st.windows, len(st.distinct))
		}
	}
}

// traceOracle is the per-event reference for the branch trace the
// engine records (interp.EdgeCounts.Decisions): at every edge out of a
// block whose terminator has two or more distinct successors, it
// appends the index of the edge's target among them.
type traceOracle struct {
	succs [][][]ir.BlockID // per proc, per block: distinct successors
	data  []byte
}

func newTraceOracle(prog *ir.Program) *traceOracle {
	o := &traceOracle{succs: make([][][]ir.BlockID, len(prog.Procs))}
	for pid, p := range prog.Procs {
		o.succs[pid] = make([][]ir.BlockID, len(p.Blocks))
		for _, b := range p.Blocks {
			o.succs[pid][b.ID] = appendDistinct(nil, b.Terminator())
		}
	}
	return o
}

func (o *traceOracle) EnterProc(p ir.ProcID, entry ir.BlockID) {}
func (o *traceOracle) ExitProc(p ir.ProcID)                    {}
func (o *traceOracle) Block(p ir.ProcID, b ir.BlockID)         {}

func (o *traceOracle) Edge(p ir.ProcID, from, to ir.BlockID) {
	if ss := o.succs[p][from]; len(ss) >= 2 {
		for k, s := range ss {
			if s == to {
				o.data = interp.AppendDecision(o.data, k)
				return
			}
		}
	}
}

// CallGraphProfiler is the per-event reference for the call-graph
// profile that CallCountsFromCounts reconstructs from engine counters:
// it counts dynamic caller→callee invocation edges, deriving the
// caller from the properly nested Enter/Exit event stream.
type CallGraphProfiler struct {
	stack  []ir.ProcID
	counts map[[2]ir.ProcID]int64
}

// NewCallGraphProfiler returns an empty call-graph profiler.
func NewCallGraphProfiler() *CallGraphProfiler {
	return &CallGraphProfiler{counts: map[[2]ir.ProcID]int64{}}
}

func (cg *CallGraphProfiler) EnterProc(p ir.ProcID, entry ir.BlockID) {
	if n := len(cg.stack); n > 0 {
		cg.counts[[2]ir.ProcID{cg.stack[n-1], p}]++
	}
	cg.stack = append(cg.stack, p)
}

func (cg *CallGraphProfiler) ExitProc(p ir.ProcID) {
	if n := len(cg.stack); n > 0 {
		cg.stack = cg.stack[:n-1]
	}
}

func (cg *CallGraphProfiler) Edge(p ir.ProcID, from, to ir.BlockID) {}
func (cg *CallGraphProfiler) Block(p ir.ProcID, b ir.BlockID)       {}

// Counts returns the dynamic (caller, callee) edge counts. The map is
// live; callers must not mutate it.
func (cg *CallGraphProfiler) Counts() map[[2]ir.ProcID]int64 { return cg.counts }
