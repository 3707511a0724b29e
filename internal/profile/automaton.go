package profile

import (
	"slices"

	"pathsched/internal/ir"
)

// automaton is one procedure's lazily built path automaton (§3.1), the
// structure both path profilers step: the window profiler once per
// executed block, the Ball–Larus profiler once per completed path id.
// A node stands for one window of recent symbols and counts how often
// a step ended there. Nodes are interned by window, so a loop that
// repeats the same paths reuses the same nodes and the node count stays
// proportional to the number of distinct windows (the paper's
// O(npaths + nedges) bound).
//
// Each node keeps its outgoing transitions in a list scanned in order.
// Nearly every node has exactly one successor (97% of the suite's
// window nodes; the widest, below a dispatch switch, has 128), so the
// scan is the steady-state step: one compare, one count, one pointer
// load. Only a transition's first traversal calls extend and consults
// the intern table.
type automaton[S ir.BlockID | int64] struct {
	// root stands for the empty window an activation starts from. It
	// is never interned and never counted.
	root *node[S]
	// extend returns, as a fresh slice, the window that follows seq
	// when s is stepped on (seq is empty at the root).
	extend func(seq []S, s S) []S
	// intern maps a window's 64-bit FNV-1a hash to the chain of nodes
	// with that hash, linked through node.next.
	intern map[uint64]*node[S]
	// nodes lists every interned node in creation order.
	nodes []*node[S]
}

// node is one state of an automaton: its window, how many steps ended
// in it, and its outgoing transitions in creation order.
type node[S ir.BlockID | int64] struct {
	seq   []S
	count int64
	succ  []transition[S]
	next  *node[S] // intern hash chain
}

// transition is a cached step: stepping on sym from the owning node
// reaches to.
type transition[S ir.BlockID | int64] struct {
	sym S
	to  *node[S]
}

func newAutomaton[S ir.BlockID | int64](extend func(seq []S, s S) []S) *automaton[S] {
	return &automaton[S]{root: &node[S]{}, extend: extend, intern: map[uint64]*node[S]{}}
}

// step advances cur by s and counts the node it reaches.
func (a *automaton[S]) step(cur *node[S], s S) *node[S] {
	nxt := cur.lookup(s)
	if nxt == nil {
		nxt = a.add(cur, s)
	}
	nxt.count++
	return nxt
}

// lookup returns the node cur's cached transition on s reaches, or nil
// before that transition's first traversal.
func (cur *node[S]) lookup(s S) *node[S] {
	for _, t := range cur.succ {
		if t.sym == s {
			return t.to
		}
	}
	return nil
}

// add is a transition's first traversal: intern the extended window and
// cache it as cur's successor on s. The caller counts the node.
func (a *automaton[S]) add(cur *node[S], s S) *node[S] {
	nxt := a.internSeq(a.extend(cur.seq, s))
	cur.succ = append(cur.succ, transition[S]{s, nxt})
	return nxt
}

// internSeq returns the unique node for window seq, creating it (and
// keeping seq) on first sight.
func (a *automaton[S]) internSeq(seq []S) *node[S] {
	h := uint64(14695981039346656037)
	for _, s := range seq {
		h ^= uint64(s)
		h *= 1099511628211
	}
	for nd := a.intern[h]; nd != nil; nd = nd.next {
		if slices.Equal(nd.seq, seq) {
			return nd
		}
	}
	nd := &node[S]{seq: seq, next: a.intern[h]}
	a.intern[h] = nd
	a.nodes = append(a.nodes, nd)
	return nd
}

// ProcAutomatonStats describes one procedure's path automaton for
// overhead reporting (cmd/experiments -profstats).
type ProcAutomatonStats struct {
	Proc  ir.ProcID
	Nodes int // distinct path nodes created
}
