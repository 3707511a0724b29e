package sched

import (
	"math/rand"
	"testing"

	"pathsched/internal/core"
	"pathsched/internal/interp"
	"pathsched/internal/ir"
	"pathsched/internal/machine"
	"pathsched/internal/profile"
)

// trainedConfig profiles prog on itself and returns the formation
// config for method.
func trainedConfig(t *testing.T, prog *ir.Program, method core.Method) core.Config {
	t.Helper()
	tp, err := profile.Train(prog, profile.PathConfig{})
	if err != nil {
		t.Fatalf("training run: %v", err)
	}
	cfg := core.DefaultConfig()
	cfg.Method = method
	cfg.Edge, cfg.Path = tp.Edge, tp.Path
	cfg.MinExecFreq = 2
	return cfg
}

// compile profiles, forms, and compacts prog with the given method.
func compile(t *testing.T, prog *ir.Program, method core.Method, opts Options, mut func(*core.Config)) *core.Result {
	t.Helper()
	cfg := trainedConfig(t, prog, method)
	if mut != nil {
		mut(&cfg)
	}
	return formAndCompact(t, prog, cfg, opts)
}

// formAndCompact forms prog under cfg and compacts the result.
func formAndCompact(t *testing.T, prog *ir.Program, cfg core.Config, opts Options) *core.Result {
	t.Helper()
	res, err := core.Form(prog, cfg)
	if err != nil {
		t.Fatalf("Form: %v", err)
	}
	if err := Compact(res, opts); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	return res
}

func mustMatch(t *testing.T, a, b *interp.Result, label string) {
	t.Helper()
	if a.Ret != b.Ret {
		t.Fatalf("%s: ret %d vs %d", label, a.Ret, b.Ret)
	}
	if len(a.Output) != len(b.Output) {
		t.Fatalf("%s: output len %d vs %d", label, len(a.Output), len(b.Output))
	}
	for i := range a.Output {
		if a.Output[i] != b.Output[i] {
			t.Fatalf("%s: output[%d] %d vs %d", label, i, a.Output[i], b.Output[i])
		}
	}
}

// hotTrace builds a loop whose body is a long dependence-light block
// chain — ideal superblock material.
func hotTrace(n int64) *ir.Program {
	bd := ir.NewBuilder("hot", 64)
	pb := bd.Proc("main")
	entry, head, b1, b2, rare, latch, exit :=
		pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock()
	const i, s, c, t1, t2, t3, t4 = 1, 2, 3, 4, 5, 6, 7
	entry.Add(ir.MovI(i, 0), ir.MovI(s, 0))
	entry.Jmp(head.ID())
	head.Add(ir.CmpLTI(c, i, n))
	head.Br(c, b1.ID(), exit.ID())
	b1.Add(
		ir.AddI(t1, i, 3), ir.MulI(t2, i, 5), ir.XorI(t3, i, 9), ir.AndI(t4, i, 12),
		ir.AndI(c, i, 63), ir.CmpEQI(c, c, 63),
	)
	b1.Br(c, rare.ID(), b2.ID())
	b2.Add(ir.Add(s, s, t1), ir.Add(s, s, t2), ir.Add(s, s, t3), ir.Add(s, s, t4))
	b2.Jmp(latch.ID())
	rare.Add(ir.AddI(s, s, 1000))
	rare.Jmp(latch.ID())
	latch.Add(ir.AddI(i, i, 1))
	latch.Jmp(head.ID())
	exit.Add(ir.Emit(s))
	exit.Ret(s)
	return bd.Finish()
}

func TestCompactPreservesSemantics(t *testing.T) {
	prog := hotTrace(500)
	orig, err := interp.Run(prog, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []core.Method{core.EdgeBased, core.PathBased} {
		res := compile(t, prog, method, Options{}, nil)
		got, err := interp.Run(res.Prog, interp.Config{})
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		mustMatch(t, orig, got, method.String())
		if got.Cycles >= got.DynInstrs {
			t.Fatalf("%v: cycles %d not below instrs %d — no ILP extracted",
				method, got.Cycles, got.DynInstrs)
		}
	}
}

func TestSuperblocksBeatBasicBlocks(t *testing.T) {
	prog := hotTrace(2000)
	base := ir.CloneProgram(prog)
	if err := CompactBasicBlocks(base, Options{}); err != nil {
		t.Fatal(err)
	}
	baseRes, err := interp.Run(base, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res := compile(t, prog, core.PathBased, Options{}, nil)
	sbRes, err := interp.Run(res.Prog, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mustMatch(t, baseRes, sbRes, "bb-vs-sb")
	if sbRes.Cycles >= baseRes.Cycles {
		t.Fatalf("superblock scheduling (%d cycles) must beat basic-block scheduling (%d)",
			sbRes.Cycles, baseRes.Cycles)
	}
}

func TestCompactBasicBlocksAnnotatesEverything(t *testing.T) {
	prog := hotTrace(10)
	if err := CompactBasicBlocks(prog, Options{}); err != nil {
		t.Fatal(err)
	}
	for _, p := range prog.Procs {
		for _, b := range p.Blocks {
			if b.Cycles == nil {
				t.Fatalf("%s/b%d not scheduled", p.Name, b.ID)
			}
			if b.SBSize != 1 {
				t.Fatalf("%s/b%d SBSize = %d, want 1", p.Name, b.ID, b.SBSize)
			}
		}
	}
	if _, err := interp.Run(prog, interp.Config{}); err != nil {
		t.Fatal(err)
	}
}

func TestResourceLimitsRespected(t *testing.T) {
	prog := hotTrace(100)
	res := compile(t, prog, core.PathBased, Options{}, nil)
	mc := machine.Default()
	for _, p := range res.Prog.Procs {
		for _, b := range p.Blocks {
			if b.Cycles == nil {
				continue
			}
			ops := map[int32]int{}
			brs := map[int32]int{}
			for i := range b.Instrs {
				cyc := b.Cycles[i]
				ops[cyc]++
				if b.Instrs[i].Op.IsBranch() {
					brs[cyc]++
				}
			}
			for cyc, n := range ops {
				if n > mc.FuncUnits {
					t.Fatalf("%s/b%d cycle %d has %d ops", p.Name, b.ID, cyc, n)
				}
			}
			for cyc, n := range brs {
				if n > mc.BranchPerCycle {
					t.Fatalf("%s/b%d cycle %d has %d branches", p.Name, b.ID, cyc, n)
				}
			}
		}
	}
}

func TestTrueDependenceLatencyRespected(t *testing.T) {
	prog := hotTrace(100)
	opts := Options{Machine: machine.Config{FuncUnits: 8, BranchPerCycle: 1, Realistic: true}}
	res := compile(t, prog, core.PathBased, opts, nil)
	// In every scheduled block, a use must issue at least latency
	// cycles after the most recent def of its source (in linear order).
	for _, p := range res.Prog.Procs {
		for _, b := range p.Blocks {
			if b.Cycles == nil {
				continue
			}
			lastDef := map[ir.Reg]int{}
			var buf []ir.Reg
			for i := range b.Instrs {
				ins := &b.Instrs[i]
				buf = ins.Uses(buf[:0])
				for _, u := range buf {
					if d, ok := lastDef[u]; ok {
						need := b.Cycles[d] + opts.Machine.Latency(b.Instrs[d].Op)
						if b.Cycles[i] < need {
							t.Fatalf("%s/b%d: instr %d uses %v at cycle %d; def at %d needs %d",
								p.Name, b.ID, i, u, b.Cycles[i], b.Cycles[d], need)
						}
					}
				}
				if ins.HasDst() {
					lastDef[ins.Dst] = i
				}
			}
		}
	}
	// Equivalence still holds with realistic latencies.
	orig, _ := interp.Run(hotTrace(100), interp.Config{})
	got, err := interp.Run(res.Prog, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mustMatch(t, orig, got, "realistic")
}

func TestSpeculativeLoadsMarked(t *testing.T) {
	// A hot path loads from a pointer only valid on that path; the
	// early exit guards the load. Superblock scheduling hoists the load
	// above the exit, so it must be marked speculative and the program
	// must still run (the non-speculative version would fault).
	bd := ir.NewBuilder("specload", 32)
	bd.Data(4, 7, 8, 9)
	pb := bd.Proc("main")
	entry, head, chk, ld, latch, skip, exit :=
		pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock()
	const i, s, c, ptr, v = 1, 2, 3, 4, 5
	entry.Add(ir.MovI(i, 0), ir.MovI(s, 0))
	entry.Jmp(head.ID())
	head.Add(ir.CmpLTI(c, i, 200))
	head.Br(c, chk.ID(), exit.ID())
	// ptr is in range except every 64th iteration, when it is wild.
	chk.Add(ir.AndI(c, i, 63), ir.CmpEQI(c, c, 63), ir.MovI(ptr, 4))
	chk.Br(c, skip.ID(), ld.ID())
	ld.Add(ir.Load(v, ptr, 1), ir.Add(s, s, v))
	ld.Jmp(latch.ID())
	skip.Add(ir.MovI(ptr, 1_000_000), ir.AddI(s, s, 1)) // wild pointer, no load
	skip.Jmp(latch.ID())
	latch.Add(ir.AddI(i, i, 1))
	latch.Jmp(head.ID())
	exit.Add(ir.Emit(s))
	exit.Ret(s)
	prog := bd.Finish()

	orig, err := interp.Run(prog, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res := compile(t, prog, core.PathBased, Options{}, nil)
	got, err := interp.Run(res.Prog, interp.Config{})
	if err != nil {
		t.Fatalf("scheduled program faulted: %v", err)
	}
	mustMatch(t, orig, got, "specload")
	found := false
	for _, p := range res.Prog.Procs {
		for _, b := range p.Blocks {
			for _, ins := range b.Instrs {
				if ins.Op == ir.OpLoad && ins.Spec {
					found = true
				}
			}
		}
	}
	if !found {
		t.Log("note: no load was hoisted above an exit in this schedule")
	}
}

func TestRenamingReducesCycles(t *testing.T) {
	// The loop body reuses one register serially; renaming breaks the
	// false dependences and shortens the schedule.
	bd := ir.NewBuilder("renamewin", 16)
	pb := bd.Proc("main")
	entry, head, body, latch, exit :=
		pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock()
	const i, s, c, t1 = 1, 2, 3, 4
	entry.Add(ir.MovI(i, 0), ir.MovI(s, 0))
	entry.Jmp(head.ID())
	head.Add(ir.CmpLTI(c, i, 400))
	head.Br(c, body.ID(), exit.ID())
	body.Add(
		ir.AddI(t1, i, 1), ir.Add(s, s, t1), // t1 reused serially:
		ir.AddI(t1, i, 2), ir.Add(s, s, t1), // WAR/WAW chains without
		ir.AddI(t1, i, 3), ir.Add(s, s, t1), // renaming
		ir.AddI(t1, i, 4), ir.Add(s, s, t1),
	)
	body.Jmp(latch.ID())
	latch.Add(ir.AddI(i, i, 1))
	latch.Jmp(head.ID())
	exit.Add(ir.Emit(s))
	exit.Ret(s)
	prog := bd.Finish()

	withRen := compile(t, prog, core.PathBased, Options{}, nil)
	withoutRen := compile(t, prog, core.PathBased, Options{DisableRenaming: true}, nil)
	r1, err := interp.Run(withRen.Prog, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := interp.Run(withoutRen.Prog, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mustMatch(t, r1, r2, "renaming ablation")
	if r1.Cycles >= r2.Cycles {
		t.Fatalf("renaming must shorten schedules: %d vs %d cycles", r1.Cycles, r2.Cycles)
	}
}

func TestDeadCodeEliminated(t *testing.T) {
	nodes := []node{
		{ins: ir.MovI(ir.VirtBase+0, 1)}, // dead
		{ins: ir.MovI(ir.VirtBase+1, 2)}, // live
		{ins: ir.Mov(5, ir.VirtBase+1)},  // uses v1
		{ins: ir.Ret(5), isExit: true},   // terminator
	}
	out := eliminateDeadDefs(nodes, newScratch())
	if len(out) != 3 {
		t.Fatalf("DCE kept %d nodes, want 3", len(out))
	}
}

func TestLiveness(t *testing.T) {
	bd := ir.NewBuilder("live", 8)
	pb := bd.Proc("main")
	a, b, c := pb.NewBlock(), pb.NewBlock(), pb.NewBlock()
	a.Add(ir.MovI(1, 5), ir.MovI(2, 6))
	a.Br(1, b.ID(), c.ID())
	b.Add(ir.Add(3, 1, 2)) // uses r1, r2
	b.Ret(3)
	c.Ret(2) // uses r2 only
	prog := bd.Finish()
	li := LiveIn(prog.Proc(0))
	if !li[1].Has(1) || !li[1].Has(2) {
		t.Fatal("block b must have r1, r2 live-in")
	}
	if li[2].Has(1) || !li[2].Has(2) {
		t.Fatal("block c must have only r2 live-in")
	}
	if li[0].Has(1) || li[0].Has(2) {
		t.Fatal("entry defines r1, r2 before use; they are not live-in")
	}
}

func TestRegSetOps(t *testing.T) {
	var s RegSet
	s.Add(0)
	s.Add(63)
	s.Add(64)
	s.Add(127)
	s.Add(ir.VirtBase + 5) // ignored
	var got []ir.Reg
	s.ForEach(func(r ir.Reg) { got = append(got, r) })
	want := []ir.Reg{0, 63, 64, 127}
	if len(got) != len(want) {
		t.Fatalf("ForEach = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach = %v, want %v", got, want)
		}
	}
	s.Remove(63)
	if s.Has(63) {
		t.Fatal("Remove failed")
	}
	if s.Has(ir.VirtBase + 5) {
		t.Fatal("virtuals are never members")
	}
}

// randProg mirrors the structured random generator from core's tests;
// compaction must preserve semantics on top of every formation scheme.
func randProg(seed int64) *ir.Program {
	rng := rand.New(rand.NewSource(seed))
	bd := ir.NewBuilder("rand", 256)
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
	outerN := int64(10 + rng.Intn(40))
	oh.Add(ir.CmpLTI(c, i, outerN))
	oh.Br(c, obody.ID(), exit.ID())
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
		thenB.Add(ir.AddI(s, s, int64(d+1)), ir.Store(addr, 0, s))
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

func TestFullPipelineSemanticsOnRandomPrograms(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		prog := randProg(seed)
		orig, err := interp.Run(prog, interp.Config{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Baseline.
		base := ir.CloneProgram(prog)
		if err := CompactBasicBlocks(base, Options{}); err != nil {
			t.Fatalf("seed %d bb: %v", seed, err)
		}
		got, err := interp.Run(base, interp.Config{})
		if err != nil {
			t.Fatalf("seed %d bb run: %v", seed, err)
		}
		mustMatch(t, orig, got, "bb")
		// Every formation scheme.
		type scheme struct {
			method core.Method
			mut    func(*core.Config)
		}
		for _, sc := range []scheme{
			{core.EdgeBased, nil},
			{core.EdgeBased, func(c *core.Config) { c.UnrollFactor = 16 }},
			{core.PathBased, nil},
			{core.PathBased, func(c *core.Config) { c.StopNonLoopAtFirstHead = true }},
		} {
			res := compile(t, prog, sc.method, Options{}, sc.mut)
			got, err := interp.Run(res.Prog, interp.Config{})
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, sc.method, err)
			}
			mustMatch(t, orig, got, "scheme")
		}
	}
}
