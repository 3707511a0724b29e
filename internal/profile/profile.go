// Package profile implements the two profile kinds the paper compares:
// point (edge) profiles and general path profiles.
//
// Edge profiles independently count executed CFG edges and block
// entries, which is exactly the information the classical
// mutual-most-likely trace picker consumes. Path profiles record the
// frequency of every executed bounded-length block sequence: the
// profiler observes a sliding window over the dynamic block trace,
// bounded to at most Depth conditional (or multiway) branches, and
// counts each distinct window. General paths may cross loop back edges,
// which is what lets path-based formation see iteration counts and
// cross-iteration branch correlation (paper §2.2).
//
// The online data structure follows §3.1: path nodes are created
// lazily, and each node keeps successor pointers, so steady-state
// profiling does O(1) amortized work per executed edge — the same
// asymptotic overhead as edge profiling. Exact frequencies for shorter
// sequences are recovered offline by summing each recorded window into
// all of its suffixes.
package profile

import (
	"fmt"

	"pathsched/internal/ir"
)

// DefaultDepth is the paper's path length limit: up to 15 conditional
// or multiway branches per path.
const DefaultDepth = 15

// DefaultMaxBlocks caps the block length of a window so that long
// branch-free chains cannot grow windows without bound.
const DefaultMaxBlocks = 64

// seqKey encodes a block sequence as a string, four little-endian
// bytes per block: the order WriteText lists windows in.
func seqKey(seq []ir.BlockID) string {
	buf := make([]byte, 4*len(seq))
	for i, b := range seq {
		v := uint32(b)
		buf[4*i] = byte(v)
		buf[4*i+1] = byte(v >> 8)
		buf[4*i+2] = byte(v >> 16)
		buf[4*i+3] = byte(v >> 24)
	}
	return string(buf)
}

// condBrMap precomputes, for one procedure, which blocks terminate in a
// conditional or multiway branch (the blocks that consume path depth).
func condBrMap(p *ir.Proc) []bool {
	m := make([]bool, len(p.Blocks))
	for i, b := range p.Blocks {
		m[i] = b.Terminator().Op.IsCondBranch()
	}
	return m
}

// FmtSeq renders a block sequence for diagnostics, e.g. "b0→b2→b1".
func FmtSeq(seq []ir.BlockID) string {
	s := ""
	for i, b := range seq {
		if i > 0 {
			s += "→"
		}
		s += fmt.Sprintf("b%d", b)
	}
	return s
}
