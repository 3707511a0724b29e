package core

import (
	"sort"

	"pathsched/internal/ir"
)

// enlargeAll applies the configured enlargement strategy to every
// sufficiently hot superblock, hottest first. Afterwards the caller
// re-runs the side-entrance fixpoint, because path-driven enlargement
// may stop with its last appended copy still branching into the middle
// of another superblock.
func (f *former) enlargeAll() {
	order := make([]*Superblock, len(f.sbs))
	copy(order, f.sbs)
	sort.SliceStable(order, func(i, j int) bool {
		if order[i].EntryFreq != order[j].EntryFreq {
			return order[i].EntryFreq > order[j].EntryFreq
		}
		return order[i].ID < order[j].ID
	})
	for _, sb := range order {
		if sb.EntryFreq < f.cfg.MinExecFreq {
			continue
		}
		if f.cfg.Method == PathBased {
			// §2.2: enlarge only superblocks whose exact completion
			// ratio is high; edge profiles cannot even compute this.
			if sb.CompletionRatio < f.cfg.CompletionMin {
				continue
			}
			f.enlargePath(sb)
		} else {
			f.enlargeEdge(sb)
		}
	}
}

// originsOf maps a block sequence to the original blocks it was cloned
// from, the coordinate system of all profile queries.
func (f *former) originsOf(blocks []ir.BlockID) []ir.BlockID {
	out := make([]ir.BlockID, len(blocks))
	for i, b := range blocks {
		out[i] = f.proc.Block(b).Origin
	}
	return out
}

func (f *former) instrCount(sb *Superblock) int {
	n := 0
	for _, b := range sb.Blocks {
		n += len(f.proc.Block(b).Instrs)
	}
	return n
}

// enlargePath is Figure 2's enlarge_trace: repeatedly append a copy of
// the most-likely-path-successor block. Crossing the head of a non-loop
// superblock stops enlargement; crossing a superblock-loop head is
// allowed MaxLoopHeads times, which is what makes a single mechanism
// subsume branch target expansion, loop peeling, and loop unrolling.
// Under the P4e variant, a candidate that is not itself a superblock
// loop additionally stops at the first head of any kind.
func (f *former) enlargePath(sb *Superblock) {
	pid := f.proc.ID
	pf := f.cfg.Path
	origins := f.originsOf(sb.Blocks)
	instrs := f.instrCount(sb)
	loopHeads := 0
	for {
		q := pf.TrimToDepth(pid, origins)
		s, fq := pf.MostLikelyPathSuccessor(pid, q)
		if s == ir.NoBlock || fq == 0 {
			return
		}
		if !f.isCFGSucc(origins[len(origins)-1], s) {
			// A profile parsed from a file can suggest extensions with
			// no CFG edge; never follow them.
			return
		}
		if f.isHead(s) {
			if !f.isLoopHead(s) {
				return
			}
			if f.cfg.StopNonLoopAtFirstHead && !sb.IsLoop {
				return
			}
			if loopHeads >= f.cfg.MaxLoopHeads {
				return
			}
			loopHeads++
		}
		src := f.proc.Block(s)
		if instrs+len(src.Instrs) > f.cfg.MaxSBInstrs {
			return
		}
		f.appendCopy(sb, s)
		origins = append(origins, s)
		instrs += len(src.Instrs)
	}
}

// appendCopy clones original block s, appends it to sb, and redirects
// the superblock's current last block so that its edges toward s (or
// toward any copy of s, if tail duplication already redirected them)
// flow into the new clone.
func (f *former) appendCopy(sb *Superblock, s ir.BlockID) {
	last := f.proc.Block(sb.Blocks[len(sb.Blocks)-1])
	clone := ir.CloneBlockInto(f.proc, f.proc.Block(s))
	t := last.Terminator()
	for i, tgt := range t.Targets {
		if tgt != ir.NoBlock && f.proc.Block(tgt).Origin == s {
			t.Targets[i] = clone.ID
		}
	}
	sb.Blocks = append(sb.Blocks, clone.ID)
	f.stats.EnlargeCopies++
}

// enlargeEdge dispatches the three classical superblock-enlarging
// optimizations (§2.1): unrolling for high-iteration superblock loops,
// peeling for low-iteration ones, branch target expansion otherwise.
func (f *former) enlargeEdge(sb *Superblock) {
	if sb.IsLoop {
		head := sb.Blocks[0]
		last := sb.Blocks[len(sb.Blocks)-1]
		headFreq := f.blockFreq(head)
		backFreq := f.edgeFreq(last, head)
		outside := headFreq - backFreq
		if outside <= 0 {
			// Never observed entering from outside: treat as a
			// high-iteration loop.
			f.unrollLoop(sb)
			return
		}
		avgIter := float64(headFreq) / float64(outside)
		if avgIter >= float64(f.cfg.UnrollFactor) {
			f.unrollLoop(sb)
		} else {
			f.peelLoop(sb, int(avgIter+0.5))
		}
		return
	}
	f.expandBranchTarget(sb)
}

// cloneBody clones every block of body, wiring the copies' internal
// fall-through edges to each other; all other targets mirror the
// originals'.
func (f *former) cloneBody(body []ir.BlockID) []ir.BlockID {
	clones := make([]ir.BlockID, len(body))
	for j, b := range body {
		clones[j] = ir.CloneBlockInto(f.proc, f.proc.Block(b)).ID
	}
	for j := 0; j < len(clones)-1; j++ {
		ir.RedirectEdges(f.proc.Block(clones[j]), body[j+1], clones[j+1])
	}
	f.stats.EnlargeCopies += len(clones)
	return clones
}

// unrollLoop appends UnrollFactor-1 copies of the superblock-loop body;
// each copy's back edge feeds the next, and the final copy's back edge
// returns to the original head, "creating a much larger loop" (§2.1).
func (f *former) unrollLoop(sb *Superblock) {
	body := append([]ir.BlockID(nil), sb.Blocks...)
	bodyInstrs := f.instrCount(sb)
	head := body[0]
	// Clone every round *before* rewiring anything: the back edge of
	// the original body is about to be redirected, and copies must
	// reproduce the pristine loop, not a half-rewired one.
	var rounds [][]ir.BlockID
	total := bodyInstrs
	for u := 1; u < f.cfg.UnrollFactor; u++ {
		if total+bodyInstrs > f.cfg.MaxSBInstrs {
			break
		}
		rounds = append(rounds, f.cloneBody(body))
		total += bodyInstrs
	}
	prevLast := body[len(body)-1]
	for _, clones := range rounds {
		ir.RedirectEdges(f.proc.Block(prevLast), head, clones[0])
		sb.Blocks = append(sb.Blocks, clones...)
		prevLast = clones[len(clones)-1]
	}
	// The final copy's back edge still targets the original head,
	// closing the larger loop.
	f.stats.Unrolled++
}

// peelLoop builds a straight-line prologue of k copies of the loop
// body, redirects every outside entry into the prologue, and chains the
// final copy back into the original loop. The prologue becomes its own
// superblock whose completion corresponds to "the loop iterated more
// than k times".
func (f *former) peelLoop(sb *Superblock, k int) {
	if k < 1 {
		k = 1
	}
	bodyInstrs := f.instrCount(sb)
	if bodyInstrs == 0 {
		return
	}
	if max := f.cfg.MaxSBInstrs / bodyInstrs; k > max {
		k = max
	}
	if k < 1 {
		return
	}
	body := sb.Blocks
	head := body[0]

	// Outside predecessors of the head (everything but back edges from
	// within this superblock).
	inSB := map[ir.BlockID]bool{}
	for _, b := range body {
		inSB[b] = true
	}
	var outside []ir.BlockID
	for _, p := range buildPreds(f.proc)[head] {
		if !inSB[p] {
			outside = append(outside, p)
		}
	}
	if len(outside) == 0 {
		return
	}

	prologue := &Superblock{ID: len(f.sbs), Proc: f.proc.ID}
	var prevLast ir.BlockID = ir.NoBlock
	var entryFreq int64
	for i := 0; i < k; i++ {
		clones := f.cloneBody(body)
		if prevLast != ir.NoBlock {
			ir.RedirectEdges(f.proc.Block(prevLast), head, clones[0])
		}
		prologue.Blocks = append(prologue.Blocks, clones...)
		prevLast = clones[len(clones)-1]
	}
	for _, p := range outside {
		entryFreq += f.edgeFreq(f.proc.Block(p).Origin, f.proc.Block(head).Origin)
		ir.RedirectEdges(f.proc.Block(p), head, prologue.Blocks[0])
	}
	prologue.EntryFreq = entryFreq
	f.sbs = append(f.sbs, prologue)
	f.stats.Peeled++
}

// expandBranchTarget iteratively appends a copy of the superblock whose
// head the candidate's final branch most likely reaches, as long as the
// branch is sufficiently biased, the target is not a superblock loop,
// and the size budget holds (§2.1).
func (f *former) expandBranchTarget(sb *Superblock) {
	headSB := map[ir.BlockID]*Superblock{}
	for _, s := range f.sbs {
		headSB[s.Blocks[0]] = s
	}
	instrs := f.instrCount(sb)
	// Classical branch target expansion appends the target superblock
	// once per enlargement pass (§2.1); two rounds approximate IMPACT's
	// repeated application without unbounded growth.
	const maxExpansions = 2
	for n := 0; n < maxExpansions; n++ {
		last := f.proc.Block(sb.Blocks[len(sb.Blocks)-1])
		lastFreq := f.blockFreq(last.Origin)
		if lastFreq == 0 {
			return
		}
		s, fq := f.mostLikelySuccOrigin(last.Origin)
		if s == ir.NoBlock || float64(fq) < f.cfg.ExpandProb*float64(lastFreq) {
			return
		}
		// Locate the actual current target whose origin is s.
		var target ir.BlockID = ir.NoBlock
		for _, tgt := range last.Terminator().Targets {
			if tgt != ir.NoBlock && f.proc.Block(tgt).Origin == s {
				target = tgt
				break
			}
		}
		if target == ir.NoBlock {
			return
		}
		tsb := headSB[target]
		if tsb == nil || tsb == sb || tsb.IsLoop {
			return
		}
		add := f.instrCount(tsb)
		if instrs+add > f.cfg.MaxSBInstrs {
			return
		}
		clones := f.cloneBody(tsb.Blocks)
		ir.RedirectEdges(last, target, clones[0])
		sb.Blocks = append(sb.Blocks, clones...)
		instrs += add
		f.stats.Expanded++
	}
}

// mostLikelySuccOrigin returns the most likely successor of original
// block o under the driving profile, in original-block coordinates.
func (f *former) mostLikelySuccOrigin(o ir.BlockID) (ir.BlockID, int64) {
	if f.cfg.Method == PathBased {
		return f.cfg.Path.MostLikelyPathSuccessor(f.proc.ID, []ir.BlockID{o})
	}
	return f.cfg.Edge.MostLikelySucc(f.proc.ID, o)
}
