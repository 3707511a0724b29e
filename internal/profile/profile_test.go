package profile

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"pathsched/internal/bench"
	"pathsched/internal/interp"
	"pathsched/internal/ir"
)

// chainProg builds a procedure of n blocks where block i ends in a
// conditional branch to blocks (i+1) mod n and (i+2) mod n when
// branchy[i], or a jump to (i+1) mod n otherwise. It is only used to
// give profilers realistic condBr maps and legal walks.
func chainProg(branchy []bool) *ir.Program {
	n := len(branchy)
	bd := ir.NewBuilder("chain", 8)
	pb := bd.Proc("main")
	bbs := pb.NewBlocks(n)
	for i, bb := range bbs {
		bb.Add(ir.MovI(1, int64(i)))
		if branchy[i] {
			bb.Br(1, bbs[(i+1)%n].ID(), bbs[(i+2)%n].ID())
		} else {
			bb.Jmp(bbs[(i+1)%n].ID())
		}
	}
	return bd.Program() // skip Finish: no ret; we never execute it
}

// walkRecs returns the edge records of a block walk.
func walkRecs(walk []ir.BlockID) []interp.EdgeRec {
	recs := make([]interp.EdgeRec, 0, len(walk))
	for i := 1; i < len(walk); i++ {
		recs = append(recs, interp.EdgeRec{From: walk[i-1], To: walk[i]})
	}
	return recs
}

// feedWalk drives an observer with one synthetic activation of proc 0
// walking the given blocks.
func feedWalk(obs interp.BatchObserver, walk []ir.BlockID) {
	obs.BeginProc(0, walk[0])
	obs.EdgeBatch(0, walkRecs(walk))
	obs.EndProc(0)
}

// legalWalk produces a length-m walk over prog's proc 0 following
// random successors.
func legalWalk(prog *ir.Program, rng *rand.Rand, m int) []ir.BlockID {
	p := prog.Proc(0)
	cur := p.Entry().ID
	walk := []ir.BlockID{cur}
	for len(walk) < m {
		succs := p.Block(cur).Succs()
		if len(succs) == 0 {
			break
		}
		cur = succs[rng.Intn(len(succs))]
		walk = append(walk, cur)
	}
	return walk
}

func TestPathFreqSimpleRepeat(t *testing.T) {
	prog := chainProg([]bool{true, true, true})
	pp := NewPathProfiler(prog, PathConfig{Depth: 15})
	// Walk b0 b1 b2 b0 b1 b2 b0.
	feedWalk(pp, []ir.BlockID{0, 1, 2, 0, 1, 2, 0})
	pf := pp.Profile()
	cases := []struct {
		seq  []ir.BlockID
		want int64
	}{
		{[]ir.BlockID{0}, 3},
		{[]ir.BlockID{1}, 2},
		{[]ir.BlockID{0, 1}, 2},
		{[]ir.BlockID{1, 2}, 2},
		{[]ir.BlockID{2, 0}, 2},
		{[]ir.BlockID{0, 1, 2}, 2},
		{[]ir.BlockID{0, 1, 2, 0}, 2},
		{[]ir.BlockID{0, 1, 2, 0, 1, 2, 0}, 1},
		{[]ir.BlockID{2, 1}, 0},
	}
	for _, c := range cases {
		if got := pf.Freq(0, c.seq); got != c.want {
			t.Errorf("Freq(%s) = %d, want %d", FmtSeq(c.seq), got, c.want)
		}
	}
}

func TestGeneralPathsCrossBackEdges(t *testing.T) {
	// The defining property of general (vs forward) paths: a window may
	// span a loop back edge, so multi-iteration sequences have exact
	// counts.
	prog := chainProg([]bool{true, true})
	pp := NewPathProfiler(prog, PathConfig{Depth: 15})
	feedWalk(pp, []ir.BlockID{0, 1, 0, 1, 0, 1})
	pf := pp.Profile()
	if got := pf.Freq(0, []ir.BlockID{0, 1, 0, 1}); got != 2 {
		t.Fatalf("two-iteration path freq = %d, want 2", got)
	}
	if got := pf.Freq(0, []ir.BlockID{1, 0, 1, 0}); got != 1 {
		t.Fatalf("offset two-iteration path freq = %d, want 1", got)
	}
}

func TestDepthLimitTrimsWindows(t *testing.T) {
	prog := chainProg([]bool{true, true, true, true})
	pp := NewPathProfiler(prog, PathConfig{Depth: 2})
	feedWalk(pp, []ir.BlockID{0, 1, 2, 3, 0, 1, 2, 3})
	pf := pp.Profile()
	// Windows never contain 3 branch blocks, so any 3-block sequence
	// (all blocks branchy here) beyond depth has count 0.
	if got := pf.Freq(0, []ir.BlockID{0, 1, 2}); got != 0 {
		t.Fatalf("beyond-depth freq = %d, want 0", got)
	}
	if got := pf.Freq(0, []ir.BlockID{1, 2}); got != 2 {
		t.Fatalf("within-depth freq = %d, want 2", got)
	}
}

func TestMaxBlocksCap(t *testing.T) {
	prog := chainProg([]bool{false, false, false, false, false, false})
	pp := NewPathProfiler(prog, PathConfig{Depth: 15, MaxBlocks: 3})
	feedWalk(pp, []ir.BlockID{0, 1, 2, 3, 4, 5})
	pf := pp.Profile()
	if got := pf.Freq(0, []ir.BlockID{2, 3, 4}); got != 1 {
		t.Fatalf("3-block window freq = %d, want 1", got)
	}
	if got := pf.Freq(0, []ir.BlockID{1, 2, 3, 4}); got != 0 {
		t.Fatalf("4-block seq beyond cap = %d, want 0", got)
	}
}

func TestTrimToDepth(t *testing.T) {
	prog := chainProg([]bool{true, false, true, true})
	pp := NewPathProfiler(prog, PathConfig{Depth: 3})
	feedWalk(pp, []ir.BlockID{0, 1, 2, 3})
	pf := pp.Profile()
	// Sequence 0,1,2,3 has 3 branch blocks (0,2,3); with one slot
	// reserved for extension only 2 may remain: trim to [2,3]? No:
	// trimming drops from the front until ≤ Depth-1 = 2 branches:
	// dropping 0 leaves [1,2,3] with branches {2,3} = 2.
	got := pf.TrimToDepth(0, []ir.BlockID{0, 1, 2, 3})
	want := []ir.BlockID{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("TrimToDepth = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TrimToDepth = %v, want %v", got, want)
		}
	}
}

func TestMostLikelyPathSuccessor(t *testing.T) {
	prog := chainProg([]bool{true, true, true})
	pp := NewPathProfiler(prog, PathConfig{Depth: 15})
	// After [0,1], block 2 follows twice and block 0 once.
	feedWalk(pp, []ir.BlockID{0, 1, 2, 0, 1, 2, 0, 1, 0})
	pf := pp.Profile()
	succ, f := pf.MostLikelyPathSuccessor(0, []ir.BlockID{0, 1})
	if succ != 2 || f != 2 {
		t.Fatalf("MLPS([0,1]) = (b%d, %d), want (b2, 2)", succ, f)
	}
	if s, f := pf.MostLikelyPathSuccessor(0, []ir.BlockID{9}); s != ir.NoBlock || f != 0 {
		t.Fatalf("MLPS(unseen) = (b%d, %d), want (none, 0)", s, f)
	}
}

func TestFigure1PathProfilesDisambiguate(t *testing.T) {
	// Paper Figure 1: edge profiles bound f(ABC) only to [500, 1000];
	// path profiles give it exactly. Blocks: A=0, X=1, B=2, C=3, Y=4.
	bd := ir.NewBuilder("fig1", 8)
	pb := bd.Proc("main")
	bbs := pb.NewBlocks(6)
	a, x, b, c, y, exit := bbs[0], bbs[1], bbs[2], bbs[3], bbs[4], bbs[5]
	a.Add(ir.MovI(1, 0))
	a.Br(1, b.ID(), x.ID())
	x.Jmp(b.ID())
	b.Add(ir.MovI(2, 0))
	b.Br(2, c.ID(), y.ID())
	c.Jmp(exit.ID())
	y.Jmp(exit.ID())
	exit.Ret(0)
	prog := bd.Finish()

	ep := newEdgeCounter(prog)
	pp := NewPathProfiler(prog, PathConfig{})
	obs := fanout{perEvent{ep}, pp}
	// Scenario: ABC 500 times, XBY 500 times. Edge counts then show
	// A→B 500, X→B 500, B→C 500, B→Y 500: perfectly ambiguous.
	for i := 0; i < 500; i++ {
		feedWalk(obs, []ir.BlockID{0, 2, 3, 5})
		feedWalk(obs, []ir.BlockID{1, 2, 4, 5})
	}
	e := ep.Profile()
	if e.EdgeFreq(0, 0, 2) != 500 || e.EdgeFreq(0, 1, 2) != 500 ||
		e.EdgeFreq(0, 2, 3) != 500 || e.EdgeFreq(0, 2, 4) != 500 {
		t.Fatal("edge counts not as constructed")
	}
	pf := pp.Profile()
	if got := pf.Freq(0, []ir.BlockID{0, 2, 3}); got != 500 {
		t.Fatalf("f(ABC) = %d, want exactly 500", got)
	}
	if got := pf.Freq(0, []ir.BlockID{0, 2, 4}); got != 0 {
		t.Fatalf("f(ABY) = %d, want exactly 0", got)
	}
}

func TestEdgeProfilerQueries(t *testing.T) {
	prog := chainProg([]bool{true, true, true})
	ep := newEdgeCounter(prog)
	feedWalk(perEvent{ep}, []ir.BlockID{0, 1, 2, 0, 1, 0})
	e := ep.Profile()
	if e.Entries(0) != 1 {
		t.Fatalf("entries = %d", e.Entries(0))
	}
	if e.BlockFreq(0, 0) != 3 || e.BlockFreq(0, 1) != 2 || e.BlockFreq(0, 2) != 1 {
		t.Fatal("block counts wrong")
	}
	if s, f := e.MostLikelySucc(0, 0); s != 1 || f != 2 {
		t.Fatalf("MostLikelySucc(0) = (b%d,%d)", s, f)
	}
	if p, f := e.MostLikelyPred(0, 0); p != 1 || f != 1 {
		// predecessors of 0: from 2 once, from 1 once; tie toward b1.
		t.Fatalf("MostLikelyPred(0) = (b%d,%d), want (b1,1)", p, f)
	}
	order := e.BlocksByFreq(0)
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("BlocksByFreq = %v", order)
	}
}

func TestPathProfileMatchesEdgeProfileOnPointQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	branchy := make([]bool, 12)
	for i := range branchy {
		branchy[i] = rng.Intn(2) == 0
	}
	branchy[0] = true
	prog := chainProg(branchy)
	ep := newEdgeCounter(prog)
	pp := NewPathProfiler(prog, PathConfig{Depth: 5})
	obs := fanout{perEvent{ep}, pp}
	for a := 0; a < 20; a++ {
		walk := legalWalk(prog, rng, 50+rng.Intn(100))
		feedWalk(obs, walk)
	}
	e, pf := ep.Profile(), pp.Profile()
	for b := 0; b < 12; b++ {
		if e.BlockFreq(0, ir.BlockID(b)) != pf.BlockFreq(0, ir.BlockID(b)) {
			t.Fatalf("block b%d: edge %d vs path %d", b,
				e.BlockFreq(0, ir.BlockID(b)), pf.BlockFreq(0, ir.BlockID(b)))
		}
		for to := 0; to < 12; to++ {
			ef := e.EdgeFreq(0, ir.BlockID(b), ir.BlockID(to))
			pfq := pf.EdgeFreq(0, ir.BlockID(b), ir.BlockID(to))
			if ef != pfq {
				t.Fatalf("edge b%d->b%d: edge %d vs path %d", b, to, ef, pfq)
			}
		}
	}
}

// TestOracleEquivalence is the central property test: on random CFGs
// and random walks (including nested activations), the efficient
// profiler and the brute-force oracle agree on every queried sequence,
// and the profile indexes exactly the sequences the oracle counted.
func TestOracleEquivalence(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		branchy := make([]bool, n)
		for i := range branchy {
			branchy[i] = rng.Intn(3) > 0
		}
		prog := chainProg(branchy)
		depth := 1 + rng.Intn(5)
		maxBlocks := 2 + rng.Intn(12)
		cfgP := PathConfig{Depth: depth, MaxBlocks: maxBlocks}
		pp := NewPathProfiler(prog, cfgP)
		op := NewOraclePathProfiler(prog, cfgP)
		obs := fanout{pp, perEvent{op}}

		var walks [][]ir.BlockID
		for a := 0; a < 1+rng.Intn(5); a++ {
			w := legalWalk(prog, rng, 5+rng.Intn(120))
			walks = append(walks, w)
			// Occasionally nest a recursive activation mid-walk.
			if rng.Intn(2) == 0 {
				recs := walkRecs(w)
				mid := len(w) / 2
				obs.BeginProc(0, w[0])
				obs.EdgeBatch(0, recs[:mid])
				inner := legalWalk(prog, rng, 5+rng.Intn(40))
				walks = append(walks, inner)
				feedWalk(obs, inner)
				obs.EdgeBatch(0, recs[mid:])
				obs.EndProc(0)
			} else {
				feedWalk(obs, w)
			}
		}
		pf := pp.Profile()
		requireOracleProfile(t, fmt.Sprintf("seed %d", seed), pf, op)
		// Query every subsequence of every walk up to 6 blocks, plus
		// random garbage sequences.
		for _, w := range walks {
			for s := 0; s < len(w); s++ {
				for l := 1; l <= 6 && s+l <= len(w); l++ {
					seq := w[s : s+l]
					if pf.Freq(0, seq) != op.Freq(0, seq) {
						t.Logf("seed %d: Freq(%s) = %d, oracle %d",
							seed, FmtSeq(seq), pf.Freq(0, seq), op.Freq(0, seq))
						return false
					}
				}
			}
		}
		for q := 0; q < 30; q++ {
			l := 1 + rng.Intn(4)
			seq := make([]ir.BlockID, l)
			for i := range seq {
				seq[i] = ir.BlockID(rng.Intn(n))
			}
			if pf.Freq(0, seq) != op.Freq(0, seq) {
				t.Logf("seed %d: random Freq(%s) = %d, oracle %d",
					seed, FmtSeq(seq), pf.Freq(0, seq), op.Freq(0, seq))
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// wideDispatchProg builds a program whose procedure "wide" (proc 0) has
// 148 blocks: a 12-way switch whose arms are chains of four diamonds,
// the arm and every direction chosen by bits of the argument mixed with
// the iteration count. With loop, each call repeats the dispatch six
// times, so windows cross the back edge; without, every activation is
// one acyclic path. main is a straight line of 40 calls with distinct
// arguments, loop-free either way.
func wideDispatchProg(loop bool) *ir.Program {
	const arms, diamonds, calls = 12, 4, 40
	bd := ir.NewBuilder("widedispatch", 16)
	w := bd.Proc("wide")
	entry, head, latch, exit := w.NewBlock(), w.NewBlock(), w.NewBlock(), w.NewBlock()
	entry.Add(ir.MovI(3, 0), ir.MovI(6, 0))
	entry.Jmp(head.ID())
	targets := make([]ir.BlockID, arms)
	for k := range targets {
		bs := w.NewBlocks(3 * diamonds)
		targets[k] = bs[0].ID()
		for i := 0; i < diamonds; i++ {
			d, l, r := bs[3*i], bs[3*i+1], bs[3*i+2]
			next := latch.ID()
			if i+1 < diamonds {
				next = bs[3*i+3].ID()
			}
			d.Add(ir.AndI(4, 2, 1<<((i+k)%5+1)))
			d.Br(4, l.ID(), r.ID())
			l.Add(ir.AddI(3, 3, int64(k+1)))
			l.Jmp(next)
			r.Add(ir.AddI(3, 3, 2))
			r.Jmp(next)
		}
	}
	head.Add(ir.MulI(2, 6, 5), ir.Add(2, 2, ir.RegArg0), ir.AndI(5, 2, 15))
	head.Switch(5, targets...)
	latch.Add(ir.AddI(6, 6, 1))
	if loop {
		latch.Add(ir.CmpLTI(7, 6, 6))
		latch.Br(7, head.ID(), exit.ID())
	} else {
		latch.Jmp(exit.ID())
	}
	exit.Ret(3)

	pb := bd.Proc("main")
	bs := pb.NewBlocks(calls + 1)
	for i := 0; i < calls; i++ {
		bs[i].Add(ir.MovI(1, int64(i*37+3)))
		bs[i].Call(5, w.ID(), bs[i+1].ID(), 1)
	}
	bs[calls].Ret(5)
	return bd.Finish()
}

// requireWide fails unless prog's proc 0 has more than 128 blocks (most
// of the suite's automaton nodes live in procedures that wide) and a
// switch of at least 9 targets (a wide fan-out).
func requireWide(t *testing.T, prog *ir.Program) {
	t.Helper()
	p := prog.Proc(0)
	widest := 0
	for _, b := range p.Blocks {
		if term := b.Terminator(); term.Op == ir.OpSwitch {
			widest = max(widest, len(term.Targets))
		}
	}
	if len(p.Blocks) <= 128 || widest < 9 {
		t.Fatalf("%s: %d blocks, widest switch %d targets; want > 128 blocks and >= 9 targets",
			p.Name, len(p.Blocks), widest)
	}
}

// TestOracleEquivalenceWide runs the automaton against the oracle on a
// procedure above 128 blocks that dispatches through a 12-way switch,
// at default, shallow and tight bounds.
func TestOracleEquivalenceWide(t *testing.T) {
	prog := wideDispatchProg(true)
	requireWide(t, prog)
	for _, cfg := range []PathConfig{{}, {Depth: 4}, {Depth: 2, MaxBlocks: 5}} {
		diffTrain(t, fmt.Sprintf("wide %+v", cfg), prog, cfg)
	}
}

// TestOracleEquivalenceGcc runs the automaton against the oracle on
// gcc's training build at a twentieth of its Scale: 166 procedures, the
// largest of 152 blocks.
func TestOracleEquivalenceGcc(t *testing.T) {
	b := bench.ByName("gcc")
	in := b.Train
	in.Scale /= 20
	diffTrain(t, "gcc", b.Build(in), PathConfig{})
}

func TestRecursionKeepsWindowsSeparate(t *testing.T) {
	prog := chainProg([]bool{true, true, true, true})
	pp := NewPathProfiler(prog, PathConfig{Depth: 15})
	// Outer activation walks 0,1; inner activation walks 2,3; outer
	// resumes with 2. The sequence [1,2] must NOT be counted (the 2 ran
	// in a different activation), but outer [0,1,2] must be.
	pp.BeginProc(0, 0)
	pp.EdgeBatch(0, walkRecs([]ir.BlockID{0, 1}))
	pp.BeginProc(0, 2)
	pp.EdgeBatch(0, walkRecs([]ir.BlockID{2, 3}))
	pp.EndProc(0)
	pp.EdgeBatch(0, walkRecs([]ir.BlockID{1, 2}))
	pp.EndProc(0)
	pf := pp.Profile()
	if got := pf.Freq(0, []ir.BlockID{0, 1, 2}); got != 1 {
		t.Fatalf("outer path [0,1,2] freq = %d, want 1", got)
	}
	if got := pf.Freq(0, []ir.BlockID{3, 2}); got != 0 {
		t.Fatalf("cross-activation [3,2] freq = %d, want 0", got)
	}
	if got := pf.Freq(0, []ir.BlockID{2, 3}); got != 1 {
		t.Fatalf("inner path [2,3] freq = %d, want 1", got)
	}
}

func TestInterningBoundsNodeCount(t *testing.T) {
	prog := chainProg([]bool{true, true})
	pp := NewPathProfiler(prog, PathConfig{Depth: 3})
	walk := make([]ir.BlockID, 0, 20000)
	for i := 0; i < 10000; i++ {
		walk = append(walk, 0, 1)
	}
	feedWalk(pp, walk)
	nodes := pp.AutomatonStats()[0].Nodes
	if _, edges := pp.BatchStats(); edges < 19000 {
		t.Fatalf("edges = %d, expected ~20k", edges)
	}
	if nodes > 64 {
		t.Fatalf("nodes = %d; interning failed, node count must stay "+
			"proportional to distinct paths", nodes)
	}
}

func TestProfilerOnRealProgram(t *testing.T) {
	// End-to-end: run the interpreter over a loop program and check the
	// path profile sees the loop's dominant path.
	bd := ir.NewBuilder("loop", 8)
	pb := bd.Proc("main")
	entry, head, body, exit := pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock()
	entry.Add(ir.MovI(1, 0))
	entry.Jmp(head.ID())
	head.Add(ir.CmpLTI(2, 1, 50))
	head.Br(2, body.ID(), exit.ID())
	body.Add(ir.AddI(1, 1, 1))
	body.Jmp(head.ID())
	exit.Ret(1)
	prog := bd.Finish()

	pp := NewPathProfiler(prog, PathConfig{})
	if _, err := interp.Run(prog, interp.Config{Batch: pp}); err != nil {
		t.Fatal(err)
	}
	pf := pp.Profile()
	hb := []ir.BlockID{head.ID(), body.ID()}
	if got := pf.Freq(0, hb); got != 50 {
		t.Fatalf("f(head,body) = %d, want 50", got)
	}
	if got := pf.Freq(0, []ir.BlockID{head.ID(), exit.ID()}); got != 1 {
		t.Fatalf("f(head,exit) = %d, want 1", got)
	}
	if w, d := pf.Windows(0); w != 103 || d == 0 {
		// entry + head + (body+head)*50 + exit = 103 block events.
		t.Fatalf("windows = (%d,%d), want 103 total", w, d)
	}
}
