package profile

import (
	"slices"

	"pathsched/internal/ir"
)

// A frozen path profile stores each procedure's suffix index as a
// reversed context trie. Every recorded window adds its count to each
// of its suffixes; read backwards, those suffixes are exactly the
// prefixes of one root-to-node walk, so a sequence s is the node
// reached by walking s from its last block to its first, and its
// count is the sum of the windows recorded at or below it. Node s's
// parent is s minus its first block, and its label is that first
// block.
//
// Successor queries need the extensions s·x of a sequence, which are
// not trie neighbours of s, so freezing links each indexed s·x to its
// head s once, as per-node successor lists.
//
// The frozen form is a handful of flat integer arrays: the garbage
// collector never scans them, and the layout is a canonical function of
// the indexed frequencies (breadth-first, siblings and successor lists
// sorted by block), so two profiles with equal contents are equal
// values whatever order their windows were recorded in.

// procPathIndex is the frozen per-procedure query structure. Nodes are
// numbered breadth-first from the root (node 0, the empty sequence), so
// node i's children are the nodes kids[i]..kids[i+1]-1, sorted by
// label, and its one-block extensions s·x are succBlock/succNode[j]
// for j in succ[i]..succ[i+1]-1, sorted by x.
type procPathIndex struct {
	condBr []bool

	label []ir.BlockID // a node's first block
	count []int64      // exact occurrences; 0 for a head no window suffix reached
	kids  []int32      // len(label)+1 child offsets
	succ  []int32      // len(label)+1 successor offsets

	succBlock []ir.BlockID
	succNode  []int32

	seqs     int   // nodes with a nonzero count: the indexed sequences
	maxLen   int   // longest indexed sequence
	windows  int64 // total windows recorded (= dynamic blocks observed)
	distinct int   // distinct windows
}

// kid returns the child of node parent labeled b, or -1.
func (idx *procPathIndex) kid(parent int32, b ir.BlockID) int32 {
	lo, end := idx.kids[parent], idx.kids[parent+1]
	hi := end
	for lo < hi {
		mid := int32(uint32(lo+hi) >> 1)
		if idx.label[mid] < b {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < end && idx.label[lo] == b {
		return lo
	}
	return -1
}

// find returns the node of seq (the root for an empty seq), or -1 when
// seq is neither a recorded suffix nor a head.
func (idx *procPathIndex) find(seq []ir.BlockID) int32 {
	cur := int32(0)
	for i := len(seq) - 1; i >= 0 && cur >= 0; i-- {
		cur = idx.kid(cur, seq[i])
	}
	return cur
}

// trieBuilder collects one procedure's recorded windows. The caller
// must not modify a window's blocks after adding it.
type trieBuilder struct {
	condBr []bool
	wins   []trieWindow
}

type trieWindow struct {
	seq []ir.BlockID
	n   int64
}

// add records n occurrences of window.
func (tb *trieBuilder) add(window []ir.BlockID, n int64) {
	if n != 0 && len(window) > 0 {
		tb.wins = append(tb.wins, trieWindow{window, n})
	}
}

// freeze builds the frozen index. Every head of an indexed sequence is
// normally itself indexed (the window one block earlier covers it), but
// hand-written or Ball–Larus windows need not guarantee that; when a
// head is missing, the build reruns with each window's all-but-last
// prefix inserted at count zero, which supplies every head.
func (tb *trieBuilder) freeze() *procPathIndex {
	if idx := tb.build(); idx != nil {
		return idx
	}
	for _, w := range tb.wins {
		if len(w.seq) > 1 {
			tb.wins = append(tb.wins, trieWindow{w.seq[:len(w.seq)-1], 0})
		}
	}
	return tb.build()
}

// build sorts the windows by their reversed blocks, so the windows
// sharing any suffix are adjacent. A window then creates one node per
// block beyond its common suffix with the window before it, and each
// level's nodes are created in sorted order — which is breadth-first
// order, siblings contiguous and sorted — so nodes are numbered in
// their final places as they are created. It returns nil if some
// indexed sequence's head is missing.
func (tb *trieBuilder) build() *procPathIndex {
	slices.SortFunc(tb.wins, func(a, b trieWindow) int {
		i, j := len(a.seq)-1, len(b.seq)-1
		for ; i >= 0 && j >= 0; i, j = i-1, j-1 {
			if a.seq[i] != b.seq[j] {
				return int(a.seq[i]) - int(b.seq[j])
			}
		}
		return len(a.seq) - len(b.seq)
	})

	// Pass 1: each window's common suffix with its predecessor, and the
	// number of nodes on every level.
	common := make([]int32, len(tb.wins))
	level := []int32{1} // level[d]: nodes at depth d; the root is level 0
	var prev []ir.BlockID
	for i, w := range tb.wins {
		c := 0
		for c < len(prev) && c < len(w.seq) && prev[len(prev)-1-c] == w.seq[len(w.seq)-1-c] {
			c++
		}
		common[i] = int32(c)
		for len(level) <= len(w.seq) {
			level = append(level, 0)
		}
		for d := c + 1; d <= len(w.seq); d++ {
			level[d]++
		}
		prev = w.seq
	}
	next := make([]int32, len(level)) // next free node number per level
	m := int32(0)
	for d, n := range level {
		next[d] = m
		m += n
	}

	// Pass 2: create the nodes, recording each window where it ends.
	idx := &procPathIndex{
		condBr: tb.condBr,
		label:  make([]ir.BlockID, m),
		count:  make([]int64, m), // windows recorded exactly here, then subtree sums
		kids:   make([]int32, m+1),
	}
	parent := make([]int32, m)
	for i := range idx.kids {
		idx.kids[i] = -1
	}
	idx.label[0], parent[0] = ir.NoBlock, -1
	path := make([]int32, 1, len(level)) // path[d]: the current window's node at depth d
	for i, w := range tb.wins {
		path = path[:common[i]+1]
		for d := int(common[i]) + 1; d <= len(w.seq); d++ {
			q, p := next[d], path[d-1]
			next[d]++
			idx.label[q], parent[q] = w.seq[len(w.seq)-d], p
			if idx.kids[p] < 0 {
				idx.kids[p] = q
			}
			path = append(path, q)
		}
		if w.n == 0 {
			continue
		}
		end := path[len(w.seq)]
		if idx.count[end] == 0 {
			idx.distinct++
		}
		idx.count[end] += w.n
		idx.windows += w.n
		idx.maxLen = max(idx.maxLen, len(w.seq))
	}
	// A leaf's children start where the next node's do.
	idx.kids[m] = m
	for q := m - 1; q >= 0; q-- {
		if idx.kids[q] < 0 {
			idx.kids[q] = idx.kids[q+1]
		}
	}
	for q := m - 1; q > 0; q-- {
		idx.count[parent[q]] += idx.count[q]
	}

	// Heads and last blocks, parents first: the head of a·r is
	// a·head(r), and a one-block r's head is the empty sequence at the
	// root.
	head := make([]int32, m)
	last := make([]ir.BlockID, m)
	for q := int32(1); q < m; q++ {
		p := parent[q]
		if idx.count[q] != 0 {
			idx.seqs++
		}
		switch {
		case p == 0:
			head[q], last[q] = 0, idx.label[q]
		case idx.count[q] == 0:
			head[q], last[q] = -1, last[p] // a head itself, never extended
		default:
			head[q], last[q] = idx.kid(head[p], idx.label[q]), last[p]
			if head[q] < 0 {
				return nil
			}
		}
	}

	// Successor lists of every indexed sequence of two or more blocks,
	// grouped by head with a counting sort. A head's extensions all lie
	// on one level, in order of their last block, and the stable
	// grouping keeps that order.
	extends := func(q int32) bool { return parent[q] != 0 && idx.count[q] != 0 }
	idx.succ = make([]int32, m+1)
	for q := int32(1); q < m; q++ {
		if extends(q) {
			idx.succ[head[q]+1]++
		}
	}
	for q := int32(0); q < m; q++ {
		idx.succ[q+1] += idx.succ[q]
	}
	idx.succBlock = make([]ir.BlockID, idx.succ[m])
	idx.succNode = make([]int32, idx.succ[m])
	fill := slices.Clone(idx.succ[:m])
	for q := int32(1); q < m; q++ {
		if extends(q) {
			j := fill[head[q]]
			fill[head[q]]++
			idx.succBlock[j], idx.succNode[j] = last[q], q
		}
	}
	return idx
}
