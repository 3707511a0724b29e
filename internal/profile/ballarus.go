package profile

import (
	"sort"

	"pathsched/internal/interp"
	"pathsched/internal/ir"
)

// Ball–Larus numbered path profiling (PAPERS.md: Ball & Larus,
// "Efficient Path Profiling", MICRO-29), extended across loop
// iterations per D'Elia & Demetrescu's k-iteration path scheme.
//
// Where the window profiler pays an automaton transition (pointer
// chase + node count) on every executed edge, the Ball–Larus scheme
// numbers the acyclic paths of each procedure statically: every back
// edge (and every overflow "cut" edge, see below) ends a path, each
// remaining edge carries a precomputed integer increment, and the hot
// loop is one add into a register-resident accumulator per edge plus
// one dense counter increment per *completed* path — work proportional
// to path completions, not path lengths.
//
// Acyclic paths alone cannot see loop iteration counts or
// cross-iteration branch correlation — exactly why the paper chose
// general paths (§2.2). The k-iteration extension recovers that: each
// activation remembers its most recent completed path numbers in a
// small interned automaton (the same structure as the window
// profiler's, but stepped once per path completion instead of once per
// block). By default the retained count adapts per tuple so the
// previous paths cover Depth branches of context — matching the
// window profiler's horizon exactly — or a fixed k can be configured. Freezing decodes each recorded k-tuple back into its block
// sequence and replays the window profiler's exact trimming rule over
// it, producing a PathProfile that formation and the depth ablation
// consume unchanged. On loop-free procedures an activation is a single
// path, tuples degenerate to single paths, and the frozen profile is
// identical to the window profiler's (pinned by the differential
// tests); on loops it is the k-iteration approximation — block
// frequencies stay exact, edge frequencies stay exact for k ≥ 2, and
// the PathFlow bounds hold by the same suffix-counting construction.

// BLConfig parameterizes Ball–Larus profiling. Depth and MaxBlocks
// bound the decoded windows exactly like PathConfig (matched depths
// make window-vs-BL comparisons meaningful); Iterations is k, the
// number of consecutive completed paths an activation remembers.
type BLConfig struct {
	// Depth is the maximum number of conditional or multiway branches
	// a decoded path window may contain. Zero means DefaultDepth.
	Depth int
	// MaxBlocks caps a decoded window's block length. Zero means
	// DefaultMaxBlocks.
	MaxBlocks int
	// Iterations is the k-iteration extension depth: how many
	// consecutive completed paths concatenate into one observable
	// sequence. Zero (the default) means adaptive: an activation
	// retains as many previous paths as needed to cover Depth branches
	// of context behind its current path — the window profiler's trim
	// rule applied at path granularity — so matched-depth comparisons
	// see the same windows regardless of how many branches each
	// benchmark packs into one acyclic path. A positive value fixes k;
	// 1 is raised to 2 (k = 1 would lose every cross-back-edge block
	// pair, and with it the exact edge frequencies the flow checker and
	// edge-based formation rely on). A negative value is an error
	// (TrainBL).
	Iterations int
}

// blMaxTupleLen hard-caps an adaptive tuple's path count, bounding
// automaton growth on pathological procedures whose paths contain no
// conditional branches at all (context never fills the Depth budget).
const blMaxTupleLen = 64

// Normalized resolves zero fields to their defaults (see
// PathConfig.Normalized — cache keys over profiling parameters compare
// normalized configs). Iterations stays 0 for the adaptive mode.
func (c BLConfig) Normalized() BLConfig {
	if c.Depth == 0 {
		c.Depth = DefaultDepth
	}
	if c.MaxBlocks == 0 {
		c.MaxBlocks = DefaultMaxBlocks
	}
	if c.Iterations == 1 {
		c.Iterations = 2
	}
	return c
}

// blMaxPathsPerBlock caps a single block's outgoing path count. When
// the running sum of successor path counts would exceed it, the
// remaining edges become "cut" edges that end the current path exactly
// like a back edge — Ball & Larus's standard defense against CFGs
// whose acyclic path counts explode combinatorially.
const blMaxPathsPerBlock = 1 << 16

// blDenseLimit is the per-procedure total path count up to which
// counters live in one dense array; beyond it they fall back to a map.
const blDenseLimit = 1 << 20

// blEdge is one outgoing CFG edge with its numbering: traversing a
// non-cut edge adds val to the accumulator; traversing a cut edge
// (back edge or overflow cut) completes path id base+r+val and starts
// a new path at the target.
type blEdge struct {
	to  ir.BlockID
	val int64
	cut bool
}

// blNode is one state of the k-tuple automaton: the window of up to k
// most recently completed path ids, its occurrence count, and lazily
// created successor pointers keyed by the next completed id.
type blNode struct {
	seq   []int64
	count int64
	// succ caches the node reached when one more path id completes.
	// A tuple state is followed by very few distinct next ids (the
	// paths actually taken out of its last id's cut target), so a
	// linearly scanned slice beats a map on the per-completion path.
	succ []blSucc
}

type blSucc struct {
	id int64
	nd *blNode
}

// blProc is the per-procedure static numbering plus runtime counters.
type blProc struct {
	condBr   []bool
	k        int // fixed tuple length; 0 = adaptive (cover depth branches)
	depth    int
	rows     [][]blEdge // outgoing numbered edges, indexed by block
	numPaths []int64    // acyclic paths from each block to any path end
	offset   []int64    // global id offset per path-start block, -1 otherwise
	starts   []ir.BlockID
	startOff []int64 // offset[starts[i]], sorted increasing
	total    int64   // Σ numPaths over starts = count of distinct path ids

	dense  []int64 // path counters when total <= blDenseLimit
	sparse map[int64]int64

	completions int64

	// k-tuple automaton, interned like the window profiler's.
	roots     map[int64]*blNode
	intern    map[uint64][]*blNode
	nodesList []*blNode
	nodes     int

	// Per-path-id conditional branch counts, decoded lazily — only
	// consulted when the automaton creates a node, never in the
	// steady-state counting loop.
	pathBr map[int64]int
	brBuf  []ir.BlockID
}

// blAct is one live activation's profiling state: the base offset of
// the current path's start block, the Ball–Larus accumulator, and the
// tuple-automaton cursor. The whole struct stays register-friendly —
// the batch loop loads it once per batch.
type blAct struct {
	proc ir.ProcID
	base int64
	r    int64
	cur  *blNode
}

// BLProfiler implements interp.BatchObserver, gathering Ball–Larus
// numbered path counts with the k-iteration extension.
type BLProfiler struct {
	cfg   BLConfig
	procs []*blProc
	acts  []blAct

	batches   int64
	batchRecs int64 // also the number of dynamic edges observed
}

// NewBLProfiler numbers every procedure of prog and returns a profiler
// ready to observe a run.
func NewBLProfiler(prog *ir.Program, cfg BLConfig) *BLProfiler {
	cfg = cfg.Normalized()
	bl := &BLProfiler{cfg: cfg, procs: make([]*blProc, len(prog.Procs))}
	for i, p := range prog.Procs {
		bl.procs[i] = newBLProc(p, cfg)
	}
	return bl
}

// newBLProc computes the static path numbering of p: back edges (and
// overflow cuts) removed, the remaining DAG's path counts accumulate
// in reverse topological order, and each edge's val is the prefix sum
// of its earlier siblings' path counts — the classic Ball–Larus
// assignment, under which the accumulated sum at a path's end is a
// unique dense id in [0, numPaths(start)).
func newBLProc(p *ir.Proc, cfg BLConfig) *blProc {
	n := len(p.Blocks)
	st := &blProc{
		condBr:   condBrMap(p),
		k:        cfg.Iterations,
		depth:    cfg.Depth,
		rows:     make([][]blEdge, n),
		numPaths: make([]int64, n),
		offset:   make([]int64, n),
		roots:    map[int64]*blNode{},
		intern:   map[uint64][]*blNode{},
		pathBr:   map[int64]int{},
	}
	for i := range st.offset {
		st.offset[i] = -1
	}
	g := ir.NewCFG(p)
	rpo := g.RPO()
	isStart := make([]bool, n)
	isStart[p.Entry().ID] = true

	// Reverse postorder is a topological order of the forward-edge
	// subgraph, so iterating it backwards sees every forward successor
	// before its predecessors.
	var uniq []ir.BlockID
	for i := len(rpo) - 1; i >= 0; i-- {
		b := rpo[i]
		// Duplicate successor targets collapse to one edge: the runtime
		// event stream identifies an edge only by (from, to).
		uniq = uniq[:0]
		for _, t := range g.Succs(b) {
			dup := false
			for _, u := range uniq {
				if u == t {
					dup = true
					break
				}
			}
			if !dup {
				uniq = append(uniq, t)
			}
		}
		if len(uniq) == 0 {
			st.numPaths[b] = 1 // a ret block ends exactly one path
			continue
		}
		row := make([]blEdge, 0, len(uniq))
		var acc int64
		for _, t := range uniq {
			cut := g.IsBackEdge(b, t)
			w := int64(1)
			if !cut {
				w = st.numPaths[t]
				if acc+w > blMaxPathsPerBlock {
					cut, w = true, 1
				}
			}
			if cut {
				isStart[t] = true
			}
			row = append(row, blEdge{to: t, val: acc, cut: cut})
			acc += w
		}
		st.rows[b] = row
		st.numPaths[b] = acc
	}

	// Path starts (entry + cut targets) get disjoint global id ranges,
	// assigned in reverse postorder for determinism.
	for _, b := range rpo {
		if !isStart[b] {
			continue
		}
		st.offset[b] = st.total
		st.starts = append(st.starts, b)
		st.startOff = append(st.startOff, st.total)
		st.total += st.numPaths[b]
	}
	if st.total <= blDenseLimit {
		st.dense = make([]int64, st.total)
	} else {
		st.sparse = map[int64]int64{}
	}
	return st
}

// record counts one completed path and advances the tuple automaton.
// Out-of-range ids (a corrupt or replayed event stream) are dropped
// defensively, mirroring the window profiler.
func (st *blProc) record(cur *blNode, id int64) *blNode {
	if id < 0 || id >= st.total {
		return cur
	}
	if st.dense != nil {
		st.dense[id]++
	} else {
		st.sparse[id]++
	}
	st.completions++
	return st.tupleStep(cur, id)
}

// tupleStep advances the k-tuple automaton by one completed path id,
// counting the resulting tuple. Structure and interning mirror the
// window profiler's pathNode automaton; it just steps once per path
// completion instead of once per executed block.
func (st *blProc) tupleStep(cur *blNode, id int64) *blNode {
	var nxt *blNode
	if cur == nil {
		nxt = st.roots[id]
	} else {
		for i := range cur.succ {
			if cur.succ[i].id == id {
				nxt = cur.succ[i].nd
				break
			}
		}
	}
	if nxt == nil {
		nxt = st.tupleStepNew(cur, id)
	}
	nxt.count++
	return nxt
}

func (st *blProc) tupleStepNew(cur *blNode, id int64) *blNode {
	var seq []int64
	if cur == nil {
		seq = []int64{id}
	} else {
		seq = make([]int64, 0, len(cur.seq)+1)
		seq = append(seq, cur.seq...)
		seq = append(seq, id)
		if st.k > 0 {
			if len(seq) > st.k {
				seq = seq[len(seq)-st.k:]
			}
		} else {
			// Adaptive: drop leading paths while the remaining previous
			// paths still hold at least depth branches of context for
			// windows ending anywhere in the last path (and never keep
			// fewer than two paths, preserving exact edge frequencies).
			ctx := 0
			for _, pid := range seq[:len(seq)-1] {
				ctx += st.pathBranches(pid)
			}
			for len(seq) > 2 && (len(seq) > blMaxTupleLen || ctx-st.pathBranches(seq[0]) >= st.depth) {
				ctx -= st.pathBranches(seq[0])
				seq = seq[1:]
			}
		}
	}
	nxt := st.internTuple(seq)
	if cur == nil {
		st.roots[id] = nxt
	} else {
		cur.succ = append(cur.succ, blSucc{id: id, nd: nxt})
	}
	return nxt
}

func (st *blProc) internTuple(seq []int64) *blNode {
	h := blSeqHash(seq)
	for _, nd := range st.intern[h] {
		if blSeqEqual(nd.seq, seq) {
			return nd
		}
	}
	nd := &blNode{seq: seq}
	st.intern[h] = append(st.intern[h], nd)
	st.nodesList = append(st.nodesList, nd)
	st.nodes++
	return nd
}

// pathBranches returns how many conditional/multiway branch blocks
// path id contains, decoding it on first use and caching the count.
func (st *blProc) pathBranches(id int64) int {
	if n, ok := st.pathBr[id]; ok {
		return n
	}
	st.brBuf = st.brBuf[:0]
	st.brBuf, _ = st.appendPath(st.brBuf, id)
	n := 0
	for _, b := range st.brBuf {
		if st.condBr[b] {
			n++
		}
	}
	st.pathBr[id] = n
	return n
}

func blSeqHash(seq []int64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range seq {
		h ^= uint64(v)
		h *= 1099511628211
	}
	return h
}

func blSeqEqual(a, b []int64) bool {
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

// BeginProc implements interp.BatchObserver: a new activation starts
// a path at its entry block.
func (bl *BLProfiler) BeginProc(p ir.ProcID, entry ir.BlockID) {
	st := bl.procs[p]
	base := int64(-1)
	if int(entry) < len(st.offset) {
		base = st.offset[entry]
	}
	bl.acts = append(bl.acts, blAct{proc: p, base: base})
}

// EndProc implements interp.BatchObserver: the activation's in-flight
// path ends at its ret block (weight 1, so the accumulator already
// holds the final id). Mismatched ends are ignored defensively,
// mirroring PathProfiler.EndProc.
func (bl *BLProfiler) EndProc(p ir.ProcID) {
	n := len(bl.acts)
	if n == 0 || bl.acts[n-1].proc != p {
		return
	}
	a := &bl.acts[n-1]
	if a.base >= 0 {
		bl.procs[p].record(a.cur, a.base+a.r)
	}
	bl.acts = bl.acts[:n-1]
}

// EdgeBatch implements interp.BatchObserver: the hot path of training
// runs. The activation state is loaded into locals once per batch; the
// steady-state per-record work is one small row scan and one add into
// a local — no stores at all until a path completes (then one counter
// increment per completed path).
func (bl *BLProfiler) EdgeBatch(p ir.ProcID, recs []interp.EdgeRec) {
	bl.batches++
	bl.batchRecs += int64(len(recs))
	if len(recs) == 0 {
		return
	}
	top := len(bl.acts) - 1
	if top < 0 || bl.acts[top].proc != p {
		return // records from an unmatched activation; ignore defensively
	}
	a := &bl.acts[top]
	st := bl.procs[p]
	rows := st.rows
	base, r, cur := a.base, a.r, a.cur
	for i := range recs {
		row := rows[recs[i].From]
		to := recs[i].To
		for j := range row {
			if row[j].to != to {
				continue
			}
			if e := &row[j]; e.cut {
				cur = st.record(cur, base+r+e.val)
				base = st.offset[to]
				r = 0
			} else {
				r += e.val
			}
			break
		}
	}
	a.base, a.r, a.cur = base, r, cur
}

var _ interp.BatchObserver = (*BLProfiler)(nil)

// Config returns the profiler's normalized configuration.
func (bl *BLProfiler) Config() BLConfig { return bl.cfg }

// NumPaths returns how many distinct static path ids procedure p was
// numbered with.
func (bl *BLProfiler) NumPaths(p ir.ProcID) int64 { return bl.procs[p].total }

// Completions returns how many paths completed in procedure p (= its
// activations plus its back-edge/cut traversals).
func (bl *BLProfiler) Completions(p ir.ProcID) int64 { return bl.procs[p].completions }

// ForEachPath calls fn for every counted path id of procedure p in
// increasing id order.
func (bl *BLProfiler) ForEachPath(p ir.ProcID, fn func(id, n int64)) {
	st := bl.procs[p]
	if st.dense != nil {
		for id, n := range st.dense {
			if n != 0 {
				fn(int64(id), n)
			}
		}
		return
	}
	ids := make([]int64, 0, len(st.sparse))
	for id := range st.sparse {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		fn(id, st.sparse[id])
	}
}

// ForEachCutEdge calls fn for every path-ending edge of procedure p
// (back edges and overflow cuts), in block order.
func (bl *BLProfiler) ForEachCutEdge(p ir.ProcID, fn func(from, to ir.BlockID)) {
	st := bl.procs[p]
	for from, row := range st.rows {
		for _, e := range row {
			if e.cut {
				fn(ir.BlockID(from), e.to)
			}
		}
	}
}

// DecodePath maps a path id back to its block sequence. cutTo is the
// target of the path-ending cut edge, or ir.NoBlock when the path ends
// at a return.
func (bl *BLProfiler) DecodePath(p ir.ProcID, id int64) (blocks []ir.BlockID, cutTo ir.BlockID) {
	return bl.procs[p].appendPath(nil, id)
}

// appendPath appends the decoded blocks of id to out. The decode walks
// the numbering in reverse: at each block, the taken edge is the last
// one whose val does not exceed the remaining id.
func (st *blProc) appendPath(out []ir.BlockID, id int64) ([]ir.BlockID, ir.BlockID) {
	s := sort.Search(len(st.startOff), func(i int) bool { return st.startOff[i] > id }) - 1
	if s < 0 {
		return out, ir.NoBlock
	}
	b := st.starts[s]
	rem := id - st.startOff[s]
	for {
		out = append(out, b)
		row := st.rows[b]
		if len(row) == 0 {
			return out, ir.NoBlock // ret block, rem == 0
		}
		k := len(row) - 1
		for k > 0 && row[k].val > rem {
			k--
		}
		e := row[k]
		if e.cut {
			return out, e.to // rem == e.val: the cut traversal ends the path
		}
		rem -= e.val
		b = e.to
	}
}

// Stats reports distinct tuple-automaton nodes and dynamic edges
// observed, mirroring PathProfiler.Stats.
func (bl *BLProfiler) Stats() (nodes int, dynEdges int64) {
	for _, st := range bl.procs {
		nodes += st.nodes
	}
	return nodes, bl.batchRecs
}

// AutomatonStats reports the k-tuple automaton size per procedure.
// Dense reports whether the path counters use the dense array.
func (bl *BLProfiler) AutomatonStats() []ProcAutomatonStats {
	out := make([]ProcAutomatonStats, len(bl.procs))
	for i, st := range bl.procs {
		out[i] = ProcAutomatonStats{Proc: ir.ProcID(i), Nodes: st.nodes, Dense: st.dense != nil}
	}
	return out
}

// BatchStats reports EdgeBatch delivery statistics.
func (bl *BLProfiler) BatchStats() (batches, records int64) {
	return bl.batches, bl.batchRecs
}

// Profile freezes the gathered tuples into a PathProfile: each
// recorded k-tuple is decoded into its concatenated block sequence
// (consecutive paths are contiguous — each ends with the cut edge the
// next one starts at), and the window profiler's exact trimming rule
// slides over it. Only windows ending inside the tuple's *last* path
// are counted — every executed block of a completed activation lies in
// the last path of exactly one recorded tuple, so no window is counted
// twice. Each window goes into the same reversed context trie the
// window profiler freezes into, so all PathProfile queries (and the
// PathFlow bounds) behave identically.
func (bl *BLProfiler) Profile() *PathProfile {
	cfg := PathConfig{Depth: bl.cfg.Depth, MaxBlocks: bl.cfg.MaxBlocks}
	out := &PathProfile{cfg: cfg, procs: make([]*procPathIndex, len(bl.procs))}
	for i, st := range bl.procs {
		tb := &trieBuilder{condBr: st.condBr}
		for _, nd := range st.nodesList {
			if nd.count == 0 {
				continue
			}
			// The trie keeps the windows, which slice this tuple's blocks.
			var blocks []ir.BlockID
			lastStart := 0
			for t, id := range nd.seq {
				if t == len(nd.seq)-1 {
					lastStart = len(blocks)
				}
				blocks, _ = st.appendPath(blocks, id)
			}
			start, branches := 0, 0
			for e := 0; e < len(blocks); e++ {
				if st.condBr[blocks[e]] {
					branches++
				}
				for branches > cfg.Depth || e-start+1 > cfg.MaxBlocks {
					if st.condBr[blocks[start]] {
						branches--
					}
					start++
				}
				if e >= lastStart {
					tb.add(blocks[start:e+1], nd.count)
				}
			}
		}
		out.procs[i] = tb.freeze()
	}
	return out
}
