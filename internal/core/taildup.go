package core

import (
	"fmt"

	"pathsched/internal/ir"
)

// initTraceSuperblocks registers each selected trace as a superblock.
func (f *former) initTraceSuperblocks() {
	for _, trace := range f.traces {
		f.sbs = append(f.sbs, &Superblock{
			ID:     len(f.sbs),
			Proc:   f.proc.ID,
			Blocks: append([]ir.BlockID(nil), trace...),
		})
	}
}

// fixSideEntrances performs tail duplication (paper §2.1): any edge
// entering a superblock at position i ≥ 1 is redirected to a fresh copy
// of the superblock's tail blocks [i..n). The copy chain is itself a
// valid superblock (its interior blocks have a single predecessor
// each), so it joins the partition.
//
// Copies may themselves carry edges into the middle of other
// superblocks (their targets mirror the originals'), so duplication
// iterates to a fixed point. Termination is guaranteed because tails
// are memoized per (superblock, position) — every side entrance to the
// same spot shares one chain — and a chain cloned from position i is
// strictly shorter than its source, so the derivation depth is finite.
func (f *former) fixSideEntrances() {
	type key struct {
		sb  int
		pos int
	}
	chainFor := map[key]*Superblock{}

	const maxRounds = 10000
	for round := 0; ; round++ {
		if round == maxRounds {
			panic(fmt.Sprintf("core: tail duplication did not converge in %s", f.proc.Name))
		}
		preds := buildPreds(f.proc)

		changed := false
		for si := 0; si < len(f.sbs); si++ {
			sb := f.sbs[si]
			for i := 1; i < len(sb.Blocks); i++ {
				cur := sb.Blocks[i]
				prev := sb.Blocks[i-1]
				for _, p := range predsOf(preds, cur) {
					if p == prev {
						continue
					}
					// Side entrance p→cur: redirect into the (shared)
					// duplicate of this superblock's tail.
					k := key{si, i}
					chain := chainFor[k]
					if chain == nil {
						chain = f.cloneTail(sb, i)
						chainFor[k] = chain
					}
					ir.RedirectEdges(f.proc.Block(p), cur, chain.Blocks[0])
					chain.EntryFreq += f.edgeFreq(f.proc.Block(p).Origin, f.proc.Block(cur).Origin)
					changed = true
				}
			}
		}
		if !changed {
			return
		}
	}
}

// cloneTail copies sb.Blocks[i:] into a fresh superblock whose internal
// fall-through edges link the copies together; all other targets mirror
// the originals'.
func (f *former) cloneTail(sb *Superblock, i int) *Superblock {
	tail := sb.Blocks[i:]
	clones := make([]ir.BlockID, len(tail))
	for j, b := range tail {
		clones[j] = ir.CloneBlockInto(f.proc, f.proc.Block(b)).ID
	}
	for j := 0; j < len(clones)-1; j++ {
		ir.RedirectEdges(f.proc.Block(clones[j]), tail[j+1], clones[j+1])
	}
	f.stats.TailDups += len(clones)
	chain := &Superblock{
		ID:     len(f.sbs),
		Proc:   f.proc.ID,
		Blocks: clones,
	}
	f.sbs = append(f.sbs, chain)
	return chain
}

// buildPreds computes the predecessor lists of the current procedure,
// indexed by block id, each in block order.
func buildPreds(p *ir.Proc) [][]ir.BlockID {
	preds := make([][]ir.BlockID, len(p.Blocks))
	for _, b := range p.Blocks {
		for _, s := range b.Succs() {
			preds[s] = append(preds[s], b.ID)
		}
	}
	return preds
}

// predsOf returns id's predecessors in preds; a block added after
// preds was built has none there.
func predsOf(preds [][]ir.BlockID, id ir.BlockID) []ir.BlockID {
	if int(id) >= len(preds) {
		return nil
	}
	return preds[id]
}

// markLoops classifies each trace-derived superblock as a superblock
// loop ("superblocks whose last blocks are likely to jump to their
// first blocks", §2.1) and records entry and completion frequencies.
// The loop test is shared between methods: the last→head edge must be a
// back edge and must carry the majority of the last block's outgoing
// frequency.
func (f *former) markLoops() {
	pid := f.proc.ID
	for _, sb := range f.sbs {
		head := f.proc.Block(sb.Blocks[0])
		if head.Origin == head.ID {
			// Trace-derived superblock: its head is an original block,
			// so entry frequency is the head's profile count and
			// loop-ness is read off the original CFG. (Clone chains
			// had EntryFreq accumulated during duplication and are
			// never loops: their "back" edges target the original
			// trace's head, not their own.)
			sb.EntryFreq = f.blockFreq(head.ID)
			last := sb.Blocks[len(sb.Blocks)-1]
			if f.cfgGraph.IsBackEdge(last, head.ID) {
				backFreq := f.edgeFreq(last, head.ID)
				if 2*backFreq > f.blockFreq(last) {
					sb.IsLoop = true
				}
			}
		}
		if f.cfg.Method == PathBased {
			// Exact completion frequency of the selected sequence, on
			// the longest suffix the profile covers (§2.2).
			origins := f.originsOf(sb.Blocks)
			suffix := f.cfg.Path.TrimToDepth(pid, origins)
			if len(suffix) == 0 {
				continue
			}
			sb.CompleteFreq = f.cfg.Path.Freq(pid, suffix)
			if base := f.cfg.Path.Freq(pid, suffix[:1]); base > 0 {
				sb.CompletionRatio = float64(sb.CompleteFreq) / float64(base)
			}
		}
	}
}
