package core

import (
	"math/rand"
	"testing"

	"pathsched/internal/interp"
	"pathsched/internal/ir"
	"pathsched/internal/profile"
)

// profiles runs prog on the interpreter once, feeding both profilers.
func profiles(t *testing.T, prog *ir.Program) (*profile.EdgeProfile, *profile.PathProfile) {
	t.Helper()
	tp, err := profile.Train(prog, profile.PathConfig{})
	if err != nil {
		t.Fatalf("training run: %v", err)
	}
	return tp.Edge, tp.Path
}

func form(t *testing.T, prog *ir.Program, method Method, mut func(*Config)) *Result {
	t.Helper()
	e, p := profiles(t, prog)
	cfg := DefaultConfig()
	cfg.Method = method
	cfg.Edge, cfg.Path = e, p
	cfg.MinExecFreq = 2
	if mut != nil {
		mut(&cfg)
	}
	res, err := Form(prog, cfg)
	if err != nil {
		t.Fatalf("Form(%v): %v", method, err)
	}
	return res
}

// mustBehaveSame checks the transformed program is observationally
// equivalent to the original.
func mustBehaveSame(t *testing.T, orig, formed *ir.Program) {
	t.Helper()
	r1, err := interp.Run(orig, interp.Config{})
	if err != nil {
		t.Fatalf("original run: %v", err)
	}
	r2, err := interp.Run(formed, interp.Config{})
	if err != nil {
		t.Fatalf("formed run: %v", err)
	}
	if r1.Ret != r2.Ret {
		t.Fatalf("ret diverged: %d vs %d", r1.Ret, r2.Ret)
	}
	if len(r1.Output) != len(r2.Output) {
		t.Fatalf("output length diverged: %d vs %d", len(r1.Output), len(r2.Output))
	}
	for i := range r1.Output {
		if r1.Output[i] != r2.Output[i] {
			t.Fatalf("output[%d] diverged: %d vs %d", i, r1.Output[i], r2.Output[i])
		}
	}
}

// loopWithExit builds: entry → head; head: if i<n → body else exit;
// body: work, if (i%4==3) → rare else common; both → latch → head.
// The common/rare split creates a dominant path with a secondary path
// every 4th iteration (the paper's "alt" shape).
func altLoop(n int64) *ir.Program {
	bd := ir.NewBuilder("alt", 64)
	pb := bd.Proc("main")
	entry, head, body, common, rare, latch, exit :=
		pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock()
	const i, sum, c, tmp = 1, 2, 3, 4
	entry.Add(ir.MovI(i, 0), ir.MovI(sum, 0))
	entry.Jmp(head.ID())
	head.Add(ir.CmpLTI(c, i, n))
	head.Br(c, body.ID(), exit.ID())
	body.Add(ir.AndI(tmp, i, 3), ir.CmpEQI(c, tmp, 3))
	body.Br(c, rare.ID(), common.ID())
	common.Add(ir.AddI(sum, sum, 1))
	common.Jmp(latch.ID())
	rare.Add(ir.AddI(sum, sum, 100))
	rare.Jmp(latch.ID())
	latch.Add(ir.AddI(i, i, 1))
	latch.Jmp(head.ID())
	exit.Add(ir.Emit(sum))
	exit.Ret(sum)
	return bd.Finish()
}

func TestEdgeSelectionMutualMostLikely(t *testing.T) {
	prog := altLoop(400)
	res := form(t, prog, EdgeBased, func(c *Config) { c.UnrollFactor = 1 })
	sbs := res.Superblocks[0]
	// The hottest superblock should start at the loop head and follow
	// head→body→common→latch.
	var hot *Superblock
	for _, sb := range sbs {
		if hot == nil || sb.EntryFreq > hot.EntryFreq {
			hot = sb
		}
	}
	origins := make([]ir.BlockID, len(hot.Blocks))
	for i, b := range hot.Blocks {
		origins[i] = res.Prog.Proc(0).Block(b).Origin
	}
	want := []ir.BlockID{1, 2, 3, 5} // head, body, common, latch
	if len(origins) != len(want) {
		t.Fatalf("hot trace origins = %v, want %v", origins, want)
	}
	for i := range want {
		if origins[i] != want[i] {
			t.Fatalf("hot trace origins = %v, want %v", origins, want)
		}
	}
	if !hot.IsLoop {
		t.Fatal("loop trace must be marked as superblock loop")
	}
	mustBehaveSame(t, prog, res.Prog)
}

func TestPathSelectionMatchesOnSimpleLoop(t *testing.T) {
	prog := altLoop(400)
	res := form(t, prog, PathBased, func(c *Config) { c.MaxLoopHeads = 0 })
	mustBehaveSame(t, prog, res.Prog)
	if err := CheckInvariants(res); err != nil {
		t.Fatal(err)
	}
}

// sideEntranceProg: A branches to B or X; X jumps to B (side entrance);
// B continues to C. Trace ABC gets a side entrance from X at B.
func sideEntranceProg() *ir.Program {
	bd := ir.NewBuilder("side", 64)
	pb := bd.Proc("main")
	loopH, a, x, b, c, latch, exit :=
		pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock()
	const i, s, cond, tmp = 1, 2, 3, 4
	loopH.Add(ir.CmpLTI(cond, i, 300))
	loopH.Br(cond, a.ID(), exit.ID())
	a.Add(ir.AndI(tmp, i, 7), ir.CmpLEI(cond, tmp, 5))
	a.Br(cond, b.ID(), x.ID()) // mostly to B
	x.Add(ir.AddI(s, s, 10))
	x.Jmp(b.ID()) // side entrance into trace at B
	b.Add(ir.AddI(s, s, 1))
	b.Jmp(c.ID())
	c.Add(ir.Emit(s))
	c.Jmp(latch.ID())
	latch.Add(ir.AddI(i, i, 1))
	latch.Jmp(loopH.ID())
	exit.Ret(s)
	return bd.Finish()
}

func TestTailDuplicationRemovesSideEntrances(t *testing.T) {
	prog := sideEntranceProg()
	for _, method := range []Method{EdgeBased, PathBased} {
		res := form(t, prog, method, nil)
		if err := CheckInvariants(res); err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if res.Stats.TailDups == 0 {
			t.Fatalf("%v: expected tail duplication to fire", method)
		}
		mustBehaveSame(t, prog, res.Prog)
	}
}

func TestEdgeUnrollCreatesCopies(t *testing.T) {
	prog := altLoop(4000)
	res := form(t, prog, EdgeBased, func(c *Config) { c.UnrollFactor = 4 })
	if res.Stats.Unrolled == 0 {
		t.Fatal("high-iteration superblock loop should unroll")
	}
	mustBehaveSame(t, prog, res.Prog)
	// The unrolled superblock should contain ~4x the body blocks.
	var hot *Superblock
	for _, sb := range res.Superblocks[0] {
		if hot == nil || len(sb.Blocks) > len(hot.Blocks) {
			hot = sb
		}
	}
	if len(hot.Blocks) < 12 {
		t.Fatalf("unrolled superblock has %d blocks, want >= 12", len(hot.Blocks))
	}
}

// lowIterProg: an outer hot loop contains an inner loop that iterates
// exactly three times per entry — a peeling candidate (average
// iteration count below the unroll factor of 4).
func lowIterProg() *ir.Program {
	bd := ir.NewBuilder("lowiter", 64)
	pb := bd.Proc("main")
	entry, oh, ob, ih, ol, exit :=
		pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock()
	const i, j, s, c = 1, 2, 3, 4
	entry.Add(ir.MovI(i, 0), ir.MovI(s, 0))
	entry.Jmp(oh.ID())
	oh.Add(ir.CmpLTI(c, i, 200))
	oh.Br(c, ob.ID(), exit.ID())
	ob.Add(ir.MovI(j, 0))
	ob.Jmp(ih.ID())
	ih.Add(ir.AddI(s, s, 1), ir.AddI(j, j, 1), ir.CmpLTI(c, j, 3))
	ih.Br(c, ih.ID(), ol.ID()) // inner loop: exactly 3 iterations
	ol.Add(ir.AddI(i, i, 1))
	ol.Jmp(oh.ID())
	exit.Add(ir.Emit(s))
	exit.Ret(s)
	return bd.Finish()
}

func TestEdgePeelLowIterationLoop(t *testing.T) {
	prog := lowIterProg()
	res := form(t, prog, EdgeBased, func(c *Config) { c.UnrollFactor = 4 })
	if res.Stats.Peeled == 0 {
		t.Fatal("3-iteration inner loop should peel, not unroll")
	}
	mustBehaveSame(t, prog, res.Prog)
	if err := CheckInvariants(res); err != nil {
		t.Fatal(err)
	}
}

func TestPathEnlargementPeelsViaPathHistory(t *testing.T) {
	// The same low-iteration loop under path-based formation: paths see
	// "ih ih ih ol" (three iterations then exit), so enlargement through
	// the loop head appends copies and then follows the exit — peeling
	// without a peeling optimization (paper Figure 3 discussion).
	prog := lowIterProg()
	res := form(t, prog, PathBased, nil)
	if res.Stats.EnlargeCopies == 0 {
		t.Fatal("path enlargement should have appended copies")
	}
	mustBehaveSame(t, prog, res.Prog)
}

func TestP4eStopsNonLoopEnlargementAtFirstHead(t *testing.T) {
	prog := altLoop(400)
	e, p := profiles(t, prog)

	mk := func(p4e bool) Stats {
		cfg := DefaultConfig()
		cfg.Method = PathBased
		cfg.Edge, cfg.Path = e, p
		cfg.MinExecFreq = 2
		cfg.StopNonLoopAtFirstHead = p4e
		res, err := Form(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mustBehaveSame(t, prog, res.Prog)
		return res.Stats
	}
	p4 := mk(false)
	p4e := mk(true)
	if p4e.EnlargeCopies > p4.EnlargeCopies {
		t.Fatalf("P4e copied more than P4: %d > %d", p4e.EnlargeCopies, p4.EnlargeCopies)
	}
}

func TestBranchTargetExpansion(t *testing.T) {
	// Straight-line chain of three traces separated by a cold diamond,
	// so the hot superblock's final branch strongly prefers one target
	// superblock: BTE should append it.
	bd := ir.NewBuilder("bte", 64)
	pb := bd.Proc("main")
	lh, a, b1, b2, join, latch, exit :=
		pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock()
	const i, s, c, tmp = 1, 2, 3, 4
	lh.Add(ir.CmpLTI(c, i, 500))
	lh.Br(c, a.ID(), exit.ID())
	a.Add(ir.AndI(tmp, i, 15), ir.CmpEQI(c, tmp, 15))
	a.Br(c, b2.ID(), b1.ID()) // 15/16 to b1
	b1.Add(ir.AddI(s, s, 1))
	b1.Jmp(join.ID())
	b2.Add(ir.AddI(s, s, 50))
	b2.Jmp(join.ID())
	join.Add(ir.AddI(s, s, 2))
	join.Jmp(latch.ID())
	latch.Add(ir.AddI(i, i, 1))
	latch.Jmp(lh.ID())
	exit.Add(ir.Emit(s))
	exit.Ret(s)
	prog := bd.Finish()

	res := form(t, prog, EdgeBased, func(c *Config) { c.UnrollFactor = 1 })
	mustBehaveSame(t, prog, res.Prog)
	if err := CheckInvariants(res); err != nil {
		t.Fatal(err)
	}
}

func TestFormRejectsMissingProfiles(t *testing.T) {
	prog := altLoop(8)
	cfg := DefaultConfig()
	cfg.Method = EdgeBased
	if _, err := Form(prog, cfg); err == nil {
		t.Fatal("edge-based formation without an edge profile must fail")
	}
	cfg.Method = PathBased
	if _, err := Form(prog, cfg); err == nil {
		t.Fatal("path-based formation without a path profile must fail")
	}
}

func TestFormDoesNotMutateInput(t *testing.T) {
	prog := altLoop(100)
	before := prog.Dump()
	_ = form(t, prog, PathBased, nil)
	_ = form(t, prog, EdgeBased, nil)
	if prog.Dump() != before {
		t.Fatal("Form mutated the input program")
	}
}

// randStructuredProg emits a deterministic random program built from
// nested loops, biased branches, memory traffic, and a helper call —
// structurally rich but guaranteed to terminate.
func randStructuredProg(seed int64) *ir.Program {
	rng := rand.New(rand.NewSource(seed))
	bd := ir.NewBuilder("rand", 256)
	// Seed memory with pseudo-random data the branches will consume.
	vals := make([]int64, 64)
	for i := range vals {
		vals[i] = int64(rng.Intn(256))
	}
	bd.Data(0, vals...)

	helper := bd.Proc("helper")
	hEntry, hThen, hElse, hOut := helper.NewBlock(), helper.NewBlock(), helper.NewBlock(), helper.NewBlock()
	hEntry.Add(ir.AndI(8, 1, 1))
	hEntry.Br(8, hThen.ID(), hElse.ID())
	hThen.Add(ir.AddI(0, 1, 3))
	hThen.Jmp(hOut.ID())
	hElse.Add(ir.MulI(0, 1, 2))
	hElse.Jmp(hOut.ID())
	hOut.Ret(0)

	pb := bd.Proc("main")
	const i, j, s, c, tmp, addr = 1, 2, 3, 4, 5, 6
	entry := pb.NewBlock()
	oh, obody := pb.NewBlock(), pb.NewBlock()
	exit := pb.NewBlock()
	entry.Add(ir.MovI(i, 0), ir.MovI(s, 0))
	entry.Jmp(oh.ID())
	outerN := int64(20 + rng.Intn(60))
	oh.Add(ir.CmpLTI(c, i, outerN))
	oh.Br(c, obody.ID(), exit.ID())

	// Body: a chain of 2-5 random diamonds, then an inner loop, then a
	// call, then the latch.
	cur := obody
	nd := 2 + rng.Intn(4)
	for d := 0; d < nd; d++ {
		thenB, elseB, join := pb.NewBlock(), pb.NewBlock(), pb.NewBlock()
		mask := int64(1) << uint(rng.Intn(4))
		cur.Add(
			ir.AndI(tmp, i, 63),
			ir.AddI(addr, tmp, 0),
			ir.Load(tmp, addr, 0),
			ir.AndI(tmp, tmp, mask),
		)
		cur.Br(tmp, thenB.ID(), elseB.ID())
		thenB.Add(ir.AddI(s, s, int64(d+1)))
		thenB.Jmp(join.ID())
		elseB.Add(ir.XorI(s, s, int64(d+7)))
		elseB.Jmp(join.ID())
		cur = join
	}
	innerN := int64(1 + rng.Intn(5))
	ih := pb.NewBlock()
	cur.Add(ir.MovI(j, 0))
	cur.Jmp(ih.ID())
	after := pb.NewBlock()
	ih.Add(ir.AddI(s, s, 1), ir.AddI(j, j, 1), ir.CmpLTI(c, j, innerN))
	ih.Br(c, ih.ID(), after.ID())
	latch := pb.NewBlock()
	after.Call(s, helper.ID(), latch.ID(), s)
	latch.Add(ir.AddI(i, i, 1), ir.Emit(s))
	latch.Jmp(oh.ID())
	exit.Add(ir.Emit(s))
	exit.Ret(s)
	return bd.Finish()
}

func TestFormPreservesSemanticsOnRandomPrograms(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		prog := randStructuredProg(seed)
		for _, method := range []Method{EdgeBased, PathBased} {
			res := form(t, prog, method, nil)
			if err := CheckInvariants(res); err != nil {
				t.Fatalf("seed %d %v: %v", seed, method, err)
			}
			mustBehaveSame(t, prog, res.Prog)
		}
		// P4e variant too.
		res := form(t, prog, PathBased, func(c *Config) { c.StopNonLoopAtFirstHead = true })
		mustBehaveSame(t, prog, res.Prog)
		// And M16.
		res = form(t, prog, EdgeBased, func(c *Config) { c.UnrollFactor = 16 })
		mustBehaveSame(t, prog, res.Prog)
		_ = res
	}
}

func TestEveryReachableBlockInExactlyOneSuperblock(t *testing.T) {
	prog := randStructuredProg(42)
	for _, method := range []Method{EdgeBased, PathBased} {
		res := form(t, prog, method, nil)
		for pid, sbs := range res.Superblocks {
			p := res.Prog.Proc(pid)
			seen := map[ir.BlockID]int{}
			for _, sb := range sbs {
				for _, b := range sb.Blocks {
					seen[b]++
				}
			}
			g := ir.NewCFG(p)
			for _, b := range p.Blocks {
				if g.Reachable(b.ID) && seen[b.ID] != 1 {
					t.Fatalf("%v: %s/b%d appears %d times in partition",
						method, p.Name, b.ID, seen[b.ID])
				}
			}
		}
	}
}
