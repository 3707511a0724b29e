package profile

import (
	"sort"

	"pathsched/internal/ir"
)

// EdgeProfile is a point profile: per-procedure block and edge
// execution counts, answering the queries of trace selection and
// enlargement. Training builds it from a counted run's counters
// (EdgeProfileFromCounts), Replay from a compile's replayed departures,
// and ParseEdgeProfile from its text form; all three size it from the
// program, so every block id it holds names a block of its procedure.
// All methods are read-only, so a built profile may serve any number
// of goroutines at once (the parallel pipeline relies on this).
type EdgeProfile struct {
	procs []*procEdges
}

// procEdges holds one procedure's counts. Block ids are dense in this
// IR (AddBlock assigns them sequentially), so block counts are a slice
// indexed by id, and the succ/pred counters are small adjacency lists
// per block: a CFG block has a handful of successors at most.
type procEdges struct {
	entries int64
	block   []int64 // execution count, indexed by block id

	// Adjacency-list counters, indexed by block id; ids and counts are
	// parallel, in insertion order. succID[b] lists the recorded
	// successors of b, predID[b] the recorded predecessors.
	succID [][]ir.BlockID
	succN  [][]int64
	predID [][]ir.BlockID
	predN  [][]int64
}

// newEdgeProfile returns an empty profile for prog, with counters
// sized to each procedure's block count.
func newEdgeProfile(prog *ir.Program) *EdgeProfile {
	e := &EdgeProfile{procs: make([]*procEdges, len(prog.Procs))}
	for i := range e.procs {
		pe := &procEdges{}
		if p := prog.Procs[i]; p != nil && len(p.Blocks) > 0 {
			n := len(p.Blocks)
			pe.block = make([]int64, n)
			pe.succID = make([][]ir.BlockID, n)
			pe.succN = make([][]int64, n)
			pe.predID = make([][]ir.BlockID, n)
			pe.predN = make([][]int64, n)
		}
		e.procs[i] = pe
	}
	return e
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

// addEdge records n traversals of from→to; both must be in range.
func (pe *procEdges) addEdge(from, to ir.BlockID, n int64) {
	bump(&pe.succID[from], &pe.succN[from], to, n)
	bump(&pe.predID[to], &pe.predN[to], from, n)
}

// Entries returns how many times procedure p was invoked.
func (e *EdgeProfile) Entries(p ir.ProcID) int64 { return e.procs[p].entries }

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

// ForEachSucc calls fn for every recorded successor edge b→to with its
// traversal count, in insertion order.
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
// its traversal count, in insertion order.
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
