package profile

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"pathsched/internal/interp"
	"pathsched/internal/ir"
)

// PathConfig parameterizes general-path profiling.
type PathConfig struct {
	// Depth is the maximum number of conditional or multiway branches
	// a path window may contain (paper: 15). Zero means DefaultDepth.
	Depth int
	// MaxBlocks caps a window's block length. Zero means
	// DefaultMaxBlocks.
	MaxBlocks int
}

// Normalized resolves zero fields to their defaults. Two configs with
// equal Normalized values profile identically, which is what cache
// keys over profiling parameters must compare (the pipeline's compile
// cache collapses an explicit Depth: 15 and the default-by-omission
// config to one entry this way).
func (c PathConfig) Normalized() PathConfig {
	if c.Depth == 0 {
		c.Depth = DefaultDepth
	}
	if c.MaxBlocks == 0 {
		c.MaxBlocks = DefaultMaxBlocks
	}
	return c
}

// checkBounds rejects a negative window bound. Zero selects the
// default, but no window holds a negative number of branches or
// blocks, and the profilers would index out of range on one.
func checkBounds(depth, maxBlocks int) error {
	switch {
	case depth < 0:
		return fmt.Errorf("profile: path depth %d is negative", depth)
	case maxBlocks < 0:
		return fmt.Errorf("profile: maxblocks %d is negative", maxBlocks)
	}
	return nil
}

// PathProfiler is an interp.BatchObserver implementing the efficient
// general-path profiling algorithm of §3.1: each procedure's automaton
// (automaton.go) steps on every executed block, so steady-state work
// per edge is a short successor-list scan.
type PathProfiler struct {
	cfg    PathConfig
	condBr [][]bool // per procedure, per block: terminator is a conditional branch
	procs  []*automaton[ir.BlockID]

	// stack holds the current path node per live activation; BeginProc
	// and EndProc keep it aligned with the call stack, so recursion in
	// the profiled program does not corrupt windows.
	stack []*node[ir.BlockID]
	// procStack mirrors stack with the owning procedure.
	procStack []ir.ProcID

	// Batch-delivery statistics (see EdgeBatch), surfaced by
	// BatchStats for cmd/experiments -profstats. batchRecs is also the
	// number of dynamic edges observed.
	batches   int64
	batchRecs int64
}

// NewPathProfiler returns a general-path profiler for prog.
func NewPathProfiler(prog *ir.Program, cfg PathConfig) *PathProfiler {
	cfg = cfg.Normalized()
	pp := &PathProfiler{
		cfg:    cfg,
		condBr: make([][]bool, len(prog.Procs)),
		procs:  make([]*automaton[ir.BlockID], len(prog.Procs)),
	}
	for i, p := range prog.Procs {
		condBr := condBrMap(p)
		pp.condBr[i] = condBr
		pp.procs[i] = newAutomaton(func(seq []ir.BlockID, b ir.BlockID) []ir.BlockID {
			return extendWindow(condBr, cfg, seq, b)
		})
	}
	return pp
}

// extendWindow returns the window that follows seq when block b
// executes: seq·b, trimmed from the front until it holds at most Depth
// conditional branches and MaxBlocks blocks. It runs only on a
// transition's first traversal, so recounting seq's branches costs
// nothing in steady state.
func extendWindow(condBr []bool, cfg PathConfig, seq []ir.BlockID, b ir.BlockID) []ir.BlockID {
	w := make([]ir.BlockID, 0, len(seq)+1)
	w = append(append(w, seq...), b)
	branches := 0
	for _, x := range w {
		if condBr[x] {
			branches++
		}
	}
	start := 0
	for branches > cfg.Depth || len(w)-start > cfg.MaxBlocks {
		if condBr[w[start]] {
			branches--
		}
		start++
	}
	return w[start:]
}

// BeginProc implements interp.BatchObserver: push a window cursor for
// the new activation and extend it by the entry block.
func (pp *PathProfiler) BeginProc(p ir.ProcID, entry ir.BlockID) {
	a := pp.procs[p]
	pp.stack = append(pp.stack, a.step(a.root, entry))
	pp.procStack = append(pp.procStack, p)
}

// EndProc implements interp.BatchObserver. A mismatched end — one
// whose procedure is not the innermost live activation, as a malformed
// or replayed event stream can produce — is ignored defensively,
// mirroring EdgeBatch; popping unconditionally would silently corrupt
// the caller's window.
func (pp *PathProfiler) EndProc(p ir.ProcID) {
	n := len(pp.stack)
	if n == 0 || pp.procStack[n-1] != p {
		return
	}
	pp.stack = pp.stack[:n-1]
	pp.procStack = pp.procStack[:n-1]
}

// EdgeBatch implements interp.BatchObserver: the hot path of training
// runs. The activation cursor is loaded once per batch, and each record
// steps it by the record's To block (its From block is the window's
// last): a scan of the cursor's successor list, a count and an advance,
// with no allocation once the transition exists.
func (pp *PathProfiler) EdgeBatch(p ir.ProcID, recs []interp.EdgeRec) {
	pp.batches++
	pp.batchRecs += int64(len(recs))
	if len(recs) == 0 {
		return
	}
	top := len(pp.stack) - 1
	if top < 0 || pp.procStack[top] != p {
		return // records from an unmatched activation; ignore defensively
	}
	a, cur := pp.procs[p], pp.stack[top]
	for i := range recs {
		b := recs[i].To
		nxt := cur.lookup(b)
		if nxt == nil {
			nxt = a.add(cur, b)
		}
		nxt.count++
		cur = nxt
	}
	pp.stack[top] = cur
}

// keyedNode pairs an interned node with its seqKey string for
// serialization order.
type keyedNode struct {
	key string
	nd  *node[ir.BlockID]
}

// sortedNodes returns a's interned nodes with their seqKeys, sorted by
// key: the order WriteText lists windows in.
func sortedNodes(a *automaton[ir.BlockID]) []keyedNode {
	out := make([]keyedNode, len(a.nodes))
	for i, nd := range a.nodes {
		out[i] = keyedNode{seqKey(nd.seq), nd}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// AutomatonStats reports every procedure's automaton size. The paper's
// efficiency argument is that nodes ≪ dynamic edges (BatchStats'
// records) in steady state.
func (pp *PathProfiler) AutomatonStats() []ProcAutomatonStats {
	out := make([]ProcAutomatonStats, len(pp.procs))
	for i, a := range pp.procs {
		out[i] = ProcAutomatonStats{Proc: ir.ProcID(i), Nodes: len(a.nodes)}
	}
	return out
}

// BatchStats reports how many EdgeBatch deliveries the profiler
// received and how many edge records they carried in total.
func (pp *PathProfiler) BatchStats() (batches, records int64) {
	return pp.batches, pp.batchRecs
}

// Profile freezes the gathered windows into a queryable PathProfile
// (see trie.go): every recorded window contributes its count to each of
// its suffixes, so Freq answers exact dynamic occurrence counts for any
// sequence within the profiled depth.
func (pp *PathProfiler) Profile() *PathProfile {
	out := &PathProfile{cfg: pp.cfg, procs: make([]*procPathIndex, len(pp.procs))}
	for i, a := range pp.procs {
		tb := &trieBuilder{condBr: pp.condBr[i]}
		for _, nd := range a.nodes {
			tb.add(nd.seq, nd.count)
		}
		out.procs[i] = tb.freeze()
	}
	return out
}

// PathProfile answers exact path-frequency queries (paper §2.2). A
// frozen profile is immutable: every method only reads the suffix
// index, so one profile may serve any number of goroutines at once
// (the parallel pipeline relies on this).
type PathProfile struct {
	cfg   PathConfig
	procs []*procPathIndex
}

// Depth returns the branch-depth bound the profile was gathered with.
func (pf *PathProfile) Depth() int { return pf.cfg.Depth }

// Config returns the (normalized) configuration the profile was
// gathered with — the value cache keys over profiling parameters must
// reproduce after a serialize→parse round trip.
func (pf *PathProfile) Config() PathConfig { return pf.cfg }

// NumProcs returns the number of procedures the profile covers.
func (pf *PathProfile) NumProcs() int { return len(pf.procs) }

// ForEachSeq calls fn for every indexed block sequence of procedure p
// with its exact occurrence count n and the summed count ext of its
// observed one-block extensions, in a fixed order. seq is only valid
// during the call. Bulk consumers (the profile-consistency checker
// sweeps every indexed sequence of every procedure) use this instead of
// one query per sequence.
func (pf *PathProfile) ForEachSeq(p ir.ProcID, fn func(seq []ir.BlockID, n, ext int64)) {
	if int(p) >= len(pf.procs) {
		return
	}
	idx := pf.procs[p]
	// Depth-first from the root: a node's sequence is its label followed
	// by its parent's, so writing labels right to left into buf keeps the
	// current sequence at buf[len(buf)-depth:]. A zero-count node is a
	// bare head, and so is everything below it.
	buf := make([]ir.BlockID, idx.maxLen)
	type frame struct{ node, depth int32 }
	stack := []frame{{0, 0}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if idx.count[f.node] == 0 {
			continue
		}
		if f.node != 0 {
			seq := buf[len(buf)-int(f.depth):]
			seq[0] = idx.label[f.node]
			var ext int64
			for j := idx.succ[f.node]; j < idx.succ[f.node+1]; j++ {
				ext += idx.count[idx.succNode[j]]
			}
			fn(seq, idx.count[f.node], ext)
		}
		for k := idx.kids[f.node+1] - 1; k >= idx.kids[f.node]; k-- {
			stack = append(stack, frame{k, f.depth + 1})
		}
	}
}

// NumSeqs returns the number of distinct indexed sequences of
// procedure p — the number of calls a ForEachSeq sweep will make.
func (pf *PathProfile) NumSeqs(p ir.ProcID) int {
	if int(p) >= len(pf.procs) {
		return 0
	}
	return pf.procs[p].seqs
}

// Freq returns the exact number of times the contiguous block sequence
// seq executed in procedure p, provided seq fits within the profiling
// depth (use TrimToDepth first for longer sequences). Sequences beyond
// the profiled depth return 0.
func (pf *PathProfile) Freq(p ir.ProcID, seq []ir.BlockID) int64 {
	if len(seq) == 0 {
		return 0
	}
	idx := pf.procs[p]
	if i := idx.find(seq); i > 0 {
		return idx.count[i]
	}
	return 0
}

// BlockFreq returns the execution count of a single block.
func (pf *PathProfile) BlockFreq(p ir.ProcID, b ir.BlockID) int64 {
	return pf.Freq(p, []ir.BlockID{b})
}

// EdgeFreq returns the execution count of the CFG edge from→to,
// derived from the path data (a point statistic is a sum of paths).
func (pf *PathProfile) EdgeFreq(p ir.ProcID, from, to ir.BlockID) int64 {
	return pf.Freq(p, []ir.BlockID{from, to})
}

// SuccFreqs returns the observed one-block extensions of seq and their
// exact frequencies: for each block s that ever executed immediately
// after seq, the count of seq·s. The caller must pass a sequence
// already within depth.
func (pf *PathProfile) SuccFreqs(p ir.ProcID, seq []ir.BlockID) map[ir.BlockID]int64 {
	idx := pf.procs[p]
	i := idx.find(seq)
	if i < 0 || idx.succ[i] == idx.succ[i+1] {
		return nil
	}
	out := make(map[ir.BlockID]int64, idx.succ[i+1]-idx.succ[i])
	for j := idx.succ[i]; j < idx.succ[i+1]; j++ {
		out[idx.succBlock[j]] = idx.count[idx.succNode[j]]
	}
	return out
}

// MostLikelyPathSuccessor implements the paper's Figure 2 primitive:
// the successor block s maximizing f(seq·s), with its frequency.
// Returns (NoBlock, 0) when seq was never extended. Ties break toward
// the smallest block id for determinism.
func (pf *PathProfile) MostLikelyPathSuccessor(p ir.ProcID, seq []ir.BlockID) (ir.BlockID, int64) {
	idx := pf.procs[p]
	best, bestN := ir.NoBlock, int64(0)
	if i := idx.find(seq); i >= 0 {
		// Successor lists are sorted by block, so the first maximum wins.
		for j := idx.succ[i]; j < idx.succ[i+1]; j++ {
			if n := idx.count[idx.succNode[j]]; n > bestN {
				best, bestN = idx.succBlock[j], n
			}
		}
	}
	return best, bestN
}

// TrimToDepth returns the longest suffix of seq whose conditional
// branch count is within the profiling depth and whose length is
// within the window cap — the "longest suffix of the superblock for
// which we have exact frequencies" from §2.2. One branch slot is
// reserved so the suffix can still be extended by one block. The
// suffix never shrinks below the final block: single blocks are always
// recorded, so returning at least seq's last block keeps Freq and
// SuccFreqs queries meaningful even when every block consumes depth
// (e.g. an all-conditional sequence at Depth 1, where a full trim would
// yield an empty suffix and silently disable path guidance).
func (pf *PathProfile) TrimToDepth(p ir.ProcID, seq []ir.BlockID) []ir.BlockID {
	condBr := pf.procs[p].condBr
	branches := 0
	for _, b := range seq {
		if int(b) < len(condBr) && condBr[b] {
			branches++
		}
	}
	start := 0
	for start < len(seq)-1 && (branches > pf.cfg.Depth-1 || len(seq)-start > pf.cfg.MaxBlocks-1) {
		if int(seq[start]) < len(condBr) && condBr[seq[start]] {
			branches--
		}
		start++
	}
	return seq[start:]
}

// Windows returns (total, distinct) recorded windows for procedure p.
func (pf *PathProfile) Windows(p ir.ProcID) (int64, int) {
	return pf.procs[p].windows, pf.procs[p].distinct
}

// BlocksByFreq returns p's executed blocks in decreasing frequency
// order (ties toward smaller ids), the seed order for path-based trace
// selection: the root's children are exactly the executed blocks.
func (pf *PathProfile) BlocksByFreq(p ir.ProcID) []ir.BlockID {
	idx := pf.procs[p]
	var kids []int32
	for k := idx.kids[0]; k < idx.kids[1]; k++ {
		if idx.count[k] != 0 {
			kids = append(kids, k)
		}
	}
	// Children are sorted by block, so a stable sort keeps ties in id order.
	slices.SortStableFunc(kids, func(a, b int32) int { return cmp.Compare(idx.count[b], idx.count[a]) })
	out := make([]ir.BlockID, len(kids))
	for i, k := range kids {
		out[i] = idx.label[k]
	}
	return out
}
