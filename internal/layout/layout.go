// Package layout assigns code addresses: a Pettis–Hansen-style
// procedure placement over the dynamic call graph (the paper applies
// [15] as the final step of its back end, §2.3), hot-path block
// chaining within each procedure, and byte address assignment at 4
// bytes per instruction. The addresses feed the instruction-cache
// simulation of §4.
package layout

import (
	"sort"

	"pathsched/internal/ir"
)

// Input supplies the dynamic weights placement consumes. All weights
// come from a training run of the *transformed* program, mirroring a
// profile-guided link step.
type Input struct {
	// CallCounts holds dynamic caller→callee invocation counts.
	CallCounts map[[2]ir.ProcID]int64
	// BlockFreq returns a block's dynamic execution count (nil means
	// every block is equally cold).
	BlockFreq func(p ir.ProcID, b ir.BlockID) int64
	// EdgeFreq returns a CFG edge's dynamic count, used for hot-path
	// block chaining (nil disables chaining).
	EdgeFreq func(p ir.ProcID, from, to ir.BlockID) int64
	// ProcAlign aligns procedure start addresses (default 32, one
	// cache line).
	ProcAlign int64
}

// Assign computes the full code layout and writes Block.Addr for every
// block of every procedure. It returns the total code size in bytes.
func Assign(prog *ir.Program, in Input) int64 {
	if in.ProcAlign == 0 {
		in.ProcAlign = 32
	}
	procOrder := OrderProcs(prog, in.CallCounts)
	addr := int64(0)
	for _, pid := range procOrder {
		p := prog.Proc(pid)
		if rem := addr % in.ProcAlign; rem != 0 {
			addr += in.ProcAlign - rem
		}
		for _, bid := range OrderBlocks(p, in) {
			b := p.Block(bid)
			b.Addr = addr
			addr += int64(len(b.Instrs)) * 4
		}
	}
	return addr
}

// OrderProcs performs Pettis–Hansen "closest is best" greedy merging:
// procedures are chains; repeatedly the heaviest call edge between two
// chains merges them, orienting the chains so the two endpoints of the
// edge land as close together as possible. Procedures without call
// activity follow in id order.
func OrderProcs(prog *ir.Program, calls map[[2]ir.ProcID]int64) []ir.ProcID {
	n := len(prog.Procs)
	// Undirected weights.
	type pair struct{ a, b ir.ProcID }
	weight := map[pair]int64{}
	for k, c := range calls { //lint:ordered commutative sums into weight
		a, b := k[0], k[1]
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		weight[pair{a, b}] += c
	}
	type wedge struct {
		a, b ir.ProcID
		w    int64
	}
	edges := make([]wedge, 0, len(weight))
	for k, w := range weight { //lint:ordered sorted below by the total order (w, a, b)
		edges = append(edges, wedge{k.a, k.b, w})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].w != edges[j].w {
			return edges[i].w > edges[j].w
		}
		if edges[i].a != edges[j].a {
			return edges[i].a < edges[j].a
		}
		return edges[i].b < edges[j].b
	})

	chainOf := make([]int, n) // proc -> chain index
	chains := make([][]ir.ProcID, n)
	for i := 0; i < n; i++ {
		chainOf[i] = i
		chains[i] = []ir.ProcID{ir.ProcID(i)}
	}
	// distFromEnd returns the distance of p from the nearer end when
	// the chain is oriented with that end first; we approximate
	// closest-is-best by choosing, for each merge, among the four
	// orientations the one minimizing the gap between a and b.
	for _, e := range edges {
		ca, cb := chainOf[e.a], chainOf[e.b]
		if ca == cb {
			continue
		}
		A, B := chains[ca], chains[cb]
		posA := indexOf(A, e.a)
		posB := indexOf(B, e.b)
		// Gap for each orientation: A then B (maybe reversed each).
		bestGap := int(1 << 30)
		bestAR, bestBR := false, false
		for _, ar := range []bool{false, true} {
			for _, br := range []bool{false, true} {
				pa := posA
				if ar {
					pa = len(A) - 1 - posA
				}
				pb := posB
				if br {
					pb = len(B) - 1 - posB
				}
				gap := (len(A) - 1 - pa) + pb
				if gap < bestGap {
					bestGap, bestAR, bestBR = gap, ar, br
				}
			}
		}
		if bestAR {
			reverse(A)
		}
		if bestBR {
			reverse(B)
		}
		merged := append(A, B...)
		chains[ca] = merged
		chains[cb] = nil
		for _, p := range merged {
			chainOf[p] = ca
		}
	}

	// Emit chains: the chain containing main first, then remaining
	// chains by total call weight (hottest first), then untouched.
	mainChain := chainOf[prog.Main]
	var out []ir.ProcID
	emit := func(ci int) {
		out = append(out, chains[ci]...)
		chains[ci] = nil
	}
	emit(mainChain)
	type chainw struct {
		idx int
		w   int64
	}
	var rest []chainw
	chainWeight := make([]int64, n)
	for k, c := range calls { //lint:ordered commutative sums into chainWeight
		chainWeight[chainOf[k[0]]] += c
		chainWeight[chainOf[k[1]]] += c
	}
	for ci, ch := range chains {
		if ch == nil || len(ch) == 0 {
			continue
		}
		rest = append(rest, chainw{ci, chainWeight[ci]})
	}
	sort.Slice(rest, func(i, j int) bool {
		if rest[i].w != rest[j].w {
			return rest[i].w > rest[j].w
		}
		return rest[i].idx < rest[j].idx
	})
	for _, c := range rest {
		emit(c.idx)
	}
	return out
}

// OrderBlocks chains a procedure's blocks along hot edges: the entry
// block first, then repeatedly the most frequent not-yet-placed
// successor; when a chain dies out, the hottest unplaced block seeds
// the next chain. Cold blocks trail in id order.
func OrderBlocks(p *ir.Proc, in Input) []ir.BlockID {
	n := len(p.Blocks)
	placed := make([]bool, n)
	var out []ir.BlockID
	place := func(b ir.BlockID) {
		placed[b] = true
		out = append(out, b)
	}
	freq := func(b ir.BlockID) int64 {
		if in.BlockFreq == nil {
			return 0
		}
		return in.BlockFreq(p.ID, b)
	}
	chain := func(start ir.BlockID) {
		cur := start
		place(cur)
		for {
			var best ir.BlockID = ir.NoBlock
			var bestW int64 = -1
			for _, s := range p.Block(cur).Succs() {
				if placed[s] {
					continue
				}
				var w int64
				if in.EdgeFreq != nil {
					w = in.EdgeFreq(p.ID, cur, s)
				}
				if w > bestW || (w == bestW && (best == ir.NoBlock || s < best)) {
					best, bestW = s, w
				}
			}
			if best == ir.NoBlock {
				return
			}
			cur = best
			place(cur)
		}
	}
	chain(p.Entry().ID)
	// Seed further chains from the hottest unplaced blocks.
	ids := make([]ir.BlockID, 0, n)
	for i := 0; i < n; i++ {
		ids = append(ids, ir.BlockID(i))
	}
	sort.Slice(ids, func(i, j int) bool {
		fi, fj := freq(ids[i]), freq(ids[j])
		if fi != fj {
			return fi > fj
		}
		return ids[i] < ids[j]
	})
	for _, b := range ids {
		if !placed[b] {
			chain(b)
		}
	}
	return out
}

func indexOf(s []ir.ProcID, v ir.ProcID) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return -1
}

func reverse(s []ir.ProcID) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}
