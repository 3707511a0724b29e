package profile

import (
	"sort"

	"pathsched/internal/ir"
)

// EdgeProfiler is an interp.Observer that gathers a point profile:
// per-procedure block and edge execution counts.
//
// Edge fires on every executed CFG edge, so its storage is dense:
// block counts are a slice indexed by block id (ids are dense in this
// IR — AddBlock assigns them sequentially), and the succ/pred counters
// are small adjacency lists per block. A CFG block has a handful of
// successors at most, so a linear scan of the id list beats the two
// map probes (hash + possible allocation) the previous representation
// paid per event.
type EdgeProfiler struct {
	procs []*procEdges
}

type procEdges struct {
	entries int64
	block   []int64 // execution count, indexed by block id

	// Adjacency-list counters, indexed by block id; ids and counts are
	// parallel, in first-observed order. succID[b] lists the observed
	// successors of b, predID[b] the observed predecessors.
	succID [][]ir.BlockID
	succN  [][]int64
	predID [][]ir.BlockID
	predN  [][]int64
}

// grow extends the per-block slices to cover block id b. Profilers
// built over a program are pre-sized, so the hot path never grows;
// profiles reconstructed by ParseEdgeProfile (no program in hand)
// grow on demand.
func (pe *procEdges) grow(b ir.BlockID) {
	need := int(b) + 1
	for len(pe.block) < need {
		pe.block = append(pe.block, 0)
		pe.succID = append(pe.succID, nil)
		pe.succN = append(pe.succN, nil)
		pe.predID = append(pe.predID, nil)
		pe.predN = append(pe.predN, nil)
	}
}

// bump adds n to key's counter in a parallel (ids, counts) adjacency
// list, appending on first sight.
func bump(ids *[]ir.BlockID, ns *[]int64, key ir.BlockID, n int64) {
	s := *ids
	for k := range s {
		if s[k] == key {
			(*ns)[k] += n
			return
		}
	}
	*ids = append(s, key)
	*ns = append(*ns, n)
}

// addEdge records n traversals of from→to.
func (pe *procEdges) addEdge(from, to ir.BlockID, n int64) {
	if from > to {
		pe.grow(from)
	} else {
		pe.grow(to)
	}
	bump(&pe.succID[from], &pe.succN[from], to, n)
	bump(&pe.predID[to], &pe.predN[to], from, n)
}

// addBlock records n executions of b.
func (pe *procEdges) addBlock(b ir.BlockID, n int64) {
	pe.grow(b)
	pe.block[b] += n
}

// NewEdgeProfiler returns an edge profiler for prog, with counters
// pre-sized to each procedure's block count.
func NewEdgeProfiler(prog *ir.Program) *EdgeProfiler {
	ep := &EdgeProfiler{procs: make([]*procEdges, len(prog.Procs))}
	for i := range ep.procs {
		pe := &procEdges{}
		if p := prog.Procs[i]; p != nil && len(p.Blocks) > 0 {
			n := len(p.Blocks)
			pe.block = make([]int64, n)
			pe.succID = make([][]ir.BlockID, n)
			pe.succN = make([][]int64, n)
			pe.predID = make([][]ir.BlockID, n)
			pe.predN = make([][]int64, n)
		}
		ep.procs[i] = pe
	}
	return ep
}

// EnterProc implements interp.Observer.
func (ep *EdgeProfiler) EnterProc(p ir.ProcID, entry ir.BlockID) { ep.procs[p].entries++ }

// ExitProc implements interp.Observer.
func (ep *EdgeProfiler) ExitProc(p ir.ProcID) {}

// Block implements interp.Observer.
func (ep *EdgeProfiler) Block(p ir.ProcID, b ir.BlockID) {
	pe := ep.procs[p]
	if int(b) < len(pe.block) {
		pe.block[b]++
		return
	}
	pe.addBlock(b, 1)
}

// Edge implements interp.Observer.
func (ep *EdgeProfiler) Edge(p ir.ProcID, from, to ir.BlockID) {
	pe := ep.procs[p]
	if int(from) < len(pe.succID) && int(to) < len(pe.predID) {
		bump(&pe.succID[from], &pe.succN[from], to, 1)
		bump(&pe.predID[to], &pe.predN[to], from, 1)
		return
	}
	pe.addEdge(from, to, 1)
}

// Profile freezes the profiler into a queryable EdgeProfile. The
// profiler may keep observing; the returned profile shares its counts.
func (ep *EdgeProfiler) Profile() *EdgeProfile { return &EdgeProfile{procs: ep.procs} }

// EdgeProfile answers point-profile queries for trace selection and
// enlargement. All methods are read-only, so a profile whose backing
// profiler has stopped observing may serve any number of goroutines at
// once (the parallel pipeline relies on this).
type EdgeProfile struct {
	procs []*procEdges
}

// Entries returns how many times procedure p was invoked.
func (e *EdgeProfile) Entries(p ir.ProcID) int64 { return e.procs[p].entries }

// NProcs returns the procedure count the profile was sized for — the
// nprocs a ParseEdgeProfile round trip needs.
func (e *EdgeProfile) NProcs() int { return len(e.procs) }

// BlockFreq returns the execution count of block b in procedure p.
func (e *EdgeProfile) BlockFreq(p ir.ProcID, b ir.BlockID) int64 {
	pe := e.procs[p]
	if b < 0 || int(b) >= len(pe.block) {
		return 0
	}
	return pe.block[b]
}

// EdgeFreq returns the execution count of the CFG edge from→to.
func (e *EdgeProfile) EdgeFreq(p ir.ProcID, from, to ir.BlockID) int64 {
	pe := e.procs[p]
	if from < 0 || int(from) >= len(pe.succID) {
		return 0
	}
	for k, id := range pe.succID[from] {
		if id == to {
			return pe.succN[from][k]
		}
	}
	return 0
}

// NumProcs returns the number of procedures the profile covers.
func (e *EdgeProfile) NumProcs() int { return len(e.procs) }

// NumBlocks returns the number of blocks with counters in procedure p
// (at least the procedure's block count when the profiler was built
// over a program).
func (e *EdgeProfile) NumBlocks(p ir.ProcID) int {
	if int(p) >= len(e.procs) {
		return 0
	}
	return len(e.procs[p].block)
}

// ForEachSucc calls fn for every recorded successor edge b→to with its
// traversal count, in first-observed order.
func (e *EdgeProfile) ForEachSucc(p ir.ProcID, b ir.BlockID, fn func(to ir.BlockID, n int64)) {
	pe := e.procs[p]
	if b < 0 || int(b) >= len(pe.succID) {
		return
	}
	for k, id := range pe.succID[b] {
		fn(id, pe.succN[b][k])
	}
}

// ForEachPred calls fn for every recorded predecessor edge from→b with
// its traversal count, in first-observed order.
func (e *EdgeProfile) ForEachPred(p ir.ProcID, b ir.BlockID, fn func(from ir.BlockID, n int64)) {
	pe := e.procs[p]
	if b < 0 || int(b) >= len(pe.predID) {
		return
	}
	for k, id := range pe.predID[b] {
		fn(id, pe.predN[b][k])
	}
}

// listArgmax returns the id with the largest positive count (ties
// toward the smallest id), or (NoBlock, 0) when every count is zero:
// the same contract as PathProfile.MostLikelyPathSuccessor.
func listArgmax(ids []ir.BlockID, ns []int64) (ir.BlockID, int64) {
	best, bestN := ir.NoBlock, int64(0)
	for k, id := range ids {
		n := ns[k]
		if n > bestN || (n == bestN && n > 0 && id < best) {
			best, bestN = id, n
		}
	}
	return best, bestN
}

// MostLikelySucc returns the successor of b with the highest edge
// count and that count, or (NoBlock, 0) when b never transferred
// control. Ties break toward the smallest block id.
func (e *EdgeProfile) MostLikelySucc(p ir.ProcID, b ir.BlockID) (ir.BlockID, int64) {
	pe := e.procs[p]
	if b < 0 || int(b) >= len(pe.succID) {
		return ir.NoBlock, 0
	}
	return listArgmax(pe.succID[b], pe.succN[b])
}

// MostLikelyPred is the mirror of MostLikelySucc over predecessors.
func (e *EdgeProfile) MostLikelyPred(p ir.ProcID, b ir.BlockID) (ir.BlockID, int64) {
	pe := e.procs[p]
	if b < 0 || int(b) >= len(pe.predID) {
		return ir.NoBlock, 0
	}
	return listArgmax(pe.predID[b], pe.predN[b])
}

// BlocksByFreq returns procedure p's executed blocks in decreasing
// frequency order (ties toward smaller ids): the seed order for trace
// selection.
func (e *EdgeProfile) BlocksByFreq(p ir.ProcID) []ir.BlockID {
	pe := e.procs[p]
	out := make([]ir.BlockID, 0, len(pe.block))
	for b, n := range pe.block {
		if n != 0 {
			out = append(out, ir.BlockID(b))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ci, cj := pe.block[out[i]], pe.block[out[j]]
		if ci != cj {
			return ci > cj
		}
		return out[i] < out[j]
	})
	return out
}
