package profile

import "pathsched/internal/ir"

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
}

type oracleFrame struct {
	proc     ir.ProcID
	window   []ir.BlockID
	branches int
}

// NewOraclePathProfiler returns the reference profiler for prog.
func NewOraclePathProfiler(prog *ir.Program, cfg PathConfig) *OraclePathProfiler {
	cfg = cfg.withDefaults()
	op := &OraclePathProfiler{cfg: cfg, procs: make([]*oracleProc, len(prog.Procs))}
	for i, p := range prog.Procs {
		op.procs[i] = &oracleProc{condBr: condBrMap(p), freq: map[string]int64{}}
	}
	return op
}

// EnterProc implements interp.Observer.
func (op *OraclePathProfiler) EnterProc(p ir.ProcID, entry ir.BlockID) {
	op.stack = append(op.stack, &oracleFrame{proc: p})
}

// ExitProc implements interp.Observer.
func (op *OraclePathProfiler) ExitProc(p ir.ProcID) {
	if n := len(op.stack); n > 0 {
		op.stack = op.stack[:n-1]
	}
}

// Edge implements interp.Observer.
func (op *OraclePathProfiler) Edge(p ir.ProcID, from, to ir.BlockID) {}

// Block implements interp.Observer.
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

// CallGraphProfiler is the per-event reference for the call-graph
// profile that CallCountsFromCounts reconstructs from engine counters:
// an interp.Observer counting dynamic caller→callee invocation edges,
// deriving the caller from the properly nested Enter/Exit event
// stream.
type CallGraphProfiler struct {
	stack  []ir.ProcID
	counts map[[2]ir.ProcID]int64
}

// NewCallGraphProfiler returns an empty call-graph profiler.
func NewCallGraphProfiler() *CallGraphProfiler {
	return &CallGraphProfiler{counts: map[[2]ir.ProcID]int64{}}
}

// EnterProc implements interp.Observer.
func (cg *CallGraphProfiler) EnterProc(p ir.ProcID, entry ir.BlockID) {
	if n := len(cg.stack); n > 0 {
		cg.counts[[2]ir.ProcID{cg.stack[n-1], p}]++
	}
	cg.stack = append(cg.stack, p)
}

// ExitProc implements interp.Observer.
func (cg *CallGraphProfiler) ExitProc(p ir.ProcID) {
	if n := len(cg.stack); n > 0 {
		cg.stack = cg.stack[:n-1]
	}
}

// Edge implements interp.Observer.
func (cg *CallGraphProfiler) Edge(p ir.ProcID, from, to ir.BlockID) {}

// Block implements interp.Observer.
func (cg *CallGraphProfiler) Block(p ir.ProcID, b ir.BlockID) {}

// Counts returns the dynamic (caller, callee) edge counts. The map is
// live; callers must not mutate it.
func (cg *CallGraphProfiler) Counts() map[[2]ir.ProcID]int64 { return cg.counts }
