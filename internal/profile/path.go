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

func (c PathConfig) withDefaults() PathConfig { return c.Normalized() }

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

// pathNode is one lazily-created state of the path automaton: the
// window of recently-executed blocks it represents, the number of
// branch-terminated blocks inside that window, its execution count,
// and successor pointers keyed by the next executed block — a dense
// slice indexed by BlockID in dense mode (allocated lazily on the
// first successor insert), a map in the fallback mode.
type pathNode struct {
	seq      []ir.BlockID
	branches int
	count    int64
	dense    []*pathNode
	succ     map[ir.BlockID]*pathNode
}

// denseLimit is the per-procedure block-count threshold for dense
// successor slices. Below it, a node's successor table costs at most
// denseLimit pointers (1KB) and the steady-state step is one array
// index; above it, nodes fall back to maps so sparse automatons over
// huge CFGs don't pay quadratic memory.
const denseLimit = 128

// procPaths holds the automaton for one procedure. Nodes are interned
// by window contents, so a loop that repeats the same paths reuses the
// same nodes and total node count stays proportional to the number of
// *distinct* paths — the paper's O(npaths + nedges) bound. The intern
// table is consulted only on the first traversal of a transition —
// it is keyed by a sequence hash with exact comparison inside the
// bucket, so interning never materializes a key string — and
// afterwards the cached successor pointer makes the step O(1): an
// array index in dense mode, a map probe in the fallback.
type procPaths struct {
	condBr  []bool // per block: terminator is a conditional branch
	nblocks int
	dense   bool                     // nblocks <= denseLimit
	roots   []*pathNode              // dense mode: window starts, by first block
	rootsM  map[ir.BlockID]*pathNode // fallback mode
	intern  map[uint64][]*pathNode   // seqHash → bucket
	// nodesList holds every interned node in creation order; freezing
	// reads it in any order, and serialization sorts it by seqKey to
	// keep the historical string-keyed intern table's byte order.
	nodesList []*pathNode
	nodes     int // total distinct nodes, for overhead statistics
}

// PathProfiler is an interp.BatchObserver implementing the efficient
// general-path profiling algorithm of §3.1: it maintains the current
// path node per activation and follows (or lazily creates) successor
// pointers on each executed edge, so steady-state work per edge is an
// array index or a single map probe.
type PathProfiler struct {
	cfg   PathConfig
	procs []*procPaths

	// stack holds the current path node per live activation; BeginProc
	// and EndProc keep it aligned with the call stack, so recursion in
	// the profiled program does not corrupt windows.
	stack []*pathNode
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
	cfg = cfg.withDefaults()
	pp := &PathProfiler{cfg: cfg, procs: make([]*procPaths, len(prog.Procs))}
	for i, p := range prog.Procs {
		condBr := condBrMap(p)
		st := &procPaths{
			condBr:  condBr,
			nblocks: len(condBr),
			intern:  map[uint64][]*pathNode{},
		}
		if st.nblocks <= denseLimit {
			st.dense = true
			st.roots = make([]*pathNode, st.nblocks)
		} else {
			st.rootsM = map[ir.BlockID]*pathNode{}
		}
		pp.procs[i] = st
	}
	return pp
}

// BeginProc implements interp.BatchObserver: push a window cursor for
// the new activation and extend it by the entry block.
func (pp *PathProfiler) BeginProc(p ir.ProcID, entry ir.BlockID) {
	pp.stack = append(pp.stack, pp.step(pp.procs[p], nil, entry))
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

// step advances one automaton transition: extend the window ending at
// cur (nil for a fresh activation) by block b, counting the resulting
// path.
func (pp *PathProfiler) step(st *procPaths, cur *pathNode, b ir.BlockID) *pathNode {
	nxt := st.lookup(cur, b)
	if nxt == nil {
		nxt = pp.stepNew(st, cur, b)
	}
	nxt.count++
	return nxt
}

// lookup follows the cached successor (or root) pointer for block b,
// returning nil on a first-traversal miss.
func (st *procPaths) lookup(cur *pathNode, b ir.BlockID) *pathNode {
	if cur == nil {
		if st.dense {
			return st.roots[b]
		}
		return st.rootsM[b]
	}
	if st.dense {
		if d := cur.dense; d != nil {
			return d[b]
		}
		return nil
	}
	return cur.succ[b]
}

// stepNew handles the cold first traversal of a transition: intern the
// extended window and cache the successor (or root) pointer. The
// caller counts the returned node.
func (pp *PathProfiler) stepNew(st *procPaths, cur *pathNode, b ir.BlockID) *pathNode {
	if cur == nil {
		nxt := st.internNode([]ir.BlockID{b})
		if st.dense {
			st.roots[b] = nxt
		} else {
			st.rootsM[b] = nxt
		}
		return nxt
	}
	nxt := st.internNode(pp.extend(st, cur, b))
	if st.dense {
		if cur.dense == nil {
			cur.dense = make([]*pathNode, st.nblocks)
		}
		cur.dense[b] = nxt
	} else {
		if cur.succ == nil {
			cur.succ = map[ir.BlockID]*pathNode{}
		}
		cur.succ[b] = nxt
	}
	return nxt
}

// EdgeBatch implements interp.BatchObserver: the hot path of training
// runs. The activation cursor is loaded once per batch, and in dense
// mode (the pipeline's configuration) the steady-state step is two
// pointer loads and an increment per edge. Each record extends the
// window by its To block; its From block is the window's last.
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
	cur := pp.stack[top]
	st := pp.procs[p]
	if st.dense {
		for i := range recs {
			b := recs[i].To
			var nxt *pathNode
			if cur == nil {
				nxt = st.roots[b]
			} else if d := cur.dense; d != nil {
				nxt = d[b]
			}
			if nxt == nil {
				nxt = pp.stepNew(st, cur, b)
			}
			nxt.count++
			cur = nxt
		}
	} else {
		for i := range recs {
			cur = pp.step(st, cur, recs[i].To)
		}
	}
	pp.stack[top] = cur
}

// extend computes the window that follows cur when block b executes:
// append b, then trim from the front until the window respects both
// the branch-depth bound and the block-length cap.
func (pp *PathProfiler) extend(st *procPaths, cur *pathNode, b ir.BlockID) []ir.BlockID {
	seq := make([]ir.BlockID, 0, len(cur.seq)+1)
	seq = append(seq, cur.seq...)
	seq = append(seq, b)
	branches := cur.branches
	if st.condBr[b] {
		branches++
	}
	start := 0
	for branches > pp.cfg.Depth || len(seq)-start > pp.cfg.MaxBlocks {
		if st.condBr[seq[start]] {
			branches--
		}
		start++
	}
	return seq[start:]
}

// internNode returns the unique node for the given window, creating it
// on first sight. The table is keyed by a 64-bit FNV-1a hash of the
// sequence with exact comparison inside the bucket — node creation no
// longer materializes a key string; seqKey strings are built only when
// serializing (see sortedNodes).
func (st *procPaths) internNode(seq []ir.BlockID) *pathNode {
	h := seqHash(seq)
	for _, nd := range st.intern[h] {
		if seqEqual(nd.seq, seq) {
			return nd
		}
	}
	branches := 0
	for _, b := range seq {
		if st.condBr[b] {
			branches++
		}
	}
	st.nodes++
	nd := &pathNode{seq: seq, branches: branches}
	st.intern[h] = append(st.intern[h], nd)
	st.nodesList = append(st.nodesList, nd)
	return nd
}

// seqHash is 64-bit FNV-1a over the block ids.
func seqHash(seq []ir.BlockID) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range seq {
		h ^= uint64(uint32(b))
		h *= 1099511628211
	}
	return h
}

func seqEqual(a, b []ir.BlockID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// keyedNode pairs an interned node with its seqKey string for
// serialization order.
type keyedNode struct {
	key string
	nd  *pathNode
}

// sortedNodes returns every interned node with its seqKey, sorted by
// key — exactly the iteration order the historical string-keyed intern
// table gave WriteText, preserved so serialized bytes are unchanged by
// the hashed intern table.
func (st *procPaths) sortedNodes() []keyedNode {
	out := make([]keyedNode, len(st.nodesList))
	for i, nd := range st.nodesList {
		out[i] = keyedNode{seqKey(nd.seq), nd}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// Stats reports profiling overhead: distinct path nodes created and
// dynamic edges observed. The paper's efficiency argument is that
// nodes ≪ edges in steady state.
func (pp *PathProfiler) Stats() (nodes int, dynEdges int64) {
	for _, st := range pp.procs {
		nodes += st.nodes
	}
	return nodes, pp.batchRecs
}

// ProcAutomatonStats describes one procedure's path automaton for
// overhead reporting (cmd/experiments -profstats).
type ProcAutomatonStats struct {
	Proc  ir.ProcID
	Nodes int  // distinct path nodes created
	Dense bool // dense successor slices vs map fallback
}

// AutomatonStats reports every procedure's automaton size and
// successor-table mode.
func (pp *PathProfiler) AutomatonStats() []ProcAutomatonStats {
	out := make([]ProcAutomatonStats, len(pp.procs))
	for i, st := range pp.procs {
		out[i] = ProcAutomatonStats{Proc: ir.ProcID(i), Nodes: st.nodes, Dense: st.dense}
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
	for i, st := range pp.procs {
		tb := &trieBuilder{condBr: st.condBr}
		for _, nd := range st.nodesList {
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
