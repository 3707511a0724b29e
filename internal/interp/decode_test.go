package interp

import (
	"fmt"
	"reflect"
	"testing"

	"pathsched/internal/ir"
)

// This file gates the pre-decoded engine (decode.go/exec.go) against
// referenceRun, the preserved seed engine (reference_test.go): for any
// verifier-clean program and any Config, the two must produce
// byte-identical Results, identical batch event streams, identical
// fetch traffic, and identical success/failure. Hand cases pin the
// tricky semantics (merged superblocks with mid-block NoBlock exits,
// speculative loads, switch fallthrough, scheduled cycle accounting);
// a randomized property test sweeps structured programs with calls,
// recursion, loops, switches, memory traffic, randomized
// schedule/superblock annotations, and sparse register renumberings.

// diffRun executes prog under both engines in four configurations
// (bare, batch-observed, with a fetch sink, counted) and fails the test
// on any divergence: error outcome, Result, batch stream, fetch
// traffic, and the counted run's profile against the one the oracle's
// per-event stream gives. It returns the bare-run reference result for
// extra assertions.
func diffRun(t *testing.T, name string, prog *ir.Program) *Result {
	t.Helper()
	var bare *Result
	for _, mode := range []string{"bare", "batch", "fetch", "counted"} {
		refCfg, decCfg := Config{}, Config{}
		var refLog, decLog batchLog
		var refFetch, decFetch fetchLog
		var want, got *Result
		var wantErr, gotErr error
		var refTally, decTally *profileTally
		switch mode {
		case "batch":
			refCfg.Batch, decCfg.Batch = &refLog, &decLog
		case "fetch":
			refFetch.stall, decFetch.stall = 3, 3
			refCfg.Fetch, decCfg.Fetch = &refFetch, &decFetch
		}
		if mode == "counted" {
			refTally = newProfileTally()
			want, wantErr = referenceRunEvents(prog, refCfg, refTally)
			var ec *EdgeCounts
			got, ec, gotErr = EngineFor(prog).RunCounted(decCfg)
			if gotErr == nil {
				decTally = tallyCounts(ec)
			}
		} else {
			want, wantErr = referenceRun(prog, refCfg)
			got, gotErr = Run(prog, decCfg)
		}
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s/%s: reference err = %v, decoded err = %v", name, mode, wantErr, gotErr)
		}
		if wantErr != nil {
			if wantErr.Error() != gotErr.Error() {
				t.Fatalf("%s/%s: reference err %q, decoded err %q", name, mode, wantErr, gotErr)
			}
			continue
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s/%s: results diverge\nreference: %+v\ndecoded:   %+v", name, mode, want, got)
		}
		if !reflect.DeepEqual(refLog, decLog) {
			t.Fatalf("%s/%s: batch event streams diverge\nreference: %+v\ndecoded:   %+v",
				name, mode, refLog, decLog)
		}
		if !reflect.DeepEqual(refFetch.ranges, decFetch.ranges) {
			t.Fatalf("%s/%s: fetch traffic diverges\nreference: %v\ndecoded:   %v",
				name, mode, refFetch.ranges, decFetch.ranges)
		}
		if refTally != nil {
			refTally.stack = nil
			if !reflect.DeepEqual(refTally, decTally) {
				t.Fatalf("%s/%s: counted profiles diverge\nreference: %+v\ndecoded:   %+v",
					name, mode, refTally, decTally)
			}
		}
		if mode == "bare" {
			bare = want
		}
	}
	return bare
}

// profileTally is a run's control-flow profile as plain maps: the
// activations, block entries and edges of each procedure, and the
// (caller, callee) call counts. As an eventObserver it counts the
// oracle's per-event stream; tallyCounts folds a counted run's
// EdgeCounts into the same form.
type profileTally struct {
	entries map[ir.ProcID]int64
	calls   map[[2]ir.ProcID]int64
	blocks  map[[2]int64]int64 // (proc, block)
	edges   map[[3]int64]int64 // (proc, from, to)
	stack   []ir.ProcID        // live activations, while observing
}

func newProfileTally() *profileTally {
	return &profileTally{entries: map[ir.ProcID]int64{}, calls: map[[2]ir.ProcID]int64{},
		blocks: map[[2]int64]int64{}, edges: map[[3]int64]int64{}}
}

func (pt *profileTally) EnterProc(p ir.ProcID, entry ir.BlockID) {
	pt.entries[p]++
	if n := len(pt.stack); n > 0 {
		pt.calls[[2]ir.ProcID{pt.stack[n-1], p}]++
	}
	pt.stack = append(pt.stack, p)
}

func (pt *profileTally) ExitProc(p ir.ProcID) { pt.stack = pt.stack[:len(pt.stack)-1] }

func (pt *profileTally) Edge(p ir.ProcID, from, to ir.BlockID) {
	pt.edges[[3]int64{int64(p), int64(from), int64(to)}]++
}

func (pt *profileTally) Block(p ir.ProcID, b ir.BlockID) { pt.blocks[[2]int64{int64(p), int64(b)}]++ }

func tallyCounts(ec *EdgeCounts) *profileTally {
	pt := newProfileTally()
	ec.ForEachCall(func(caller, callee ir.ProcID, n int64) { pt.calls[[2]ir.ProcID{caller, callee}] += n })
	for p := 0; p < ec.NumProcs(); p++ {
		pid := ir.ProcID(p)
		if n := ec.Entries(pid); n != 0 {
			pt.entries[pid] = n
		}
		ec.ForEachBlock(pid, func(b ir.BlockID, n int64) { pt.blocks[[2]int64{int64(p), int64(b)}] = n })
		ec.ForEachEdge(pid, func(from, to ir.BlockID, n int64) { pt.edges[[3]int64{int64(p), int64(from), int64(to)}] += n })
	}
	return pt
}

// specLoadProg exercises speculative and mapped loads side by side: the
// speculative load probes an unmapped address (yields 0) while the real
// load reads initialized data.
func specLoadProg() *ir.Program {
	bd := ir.NewBuilder("spec", 16)
	bd.Data(4, 11, 22, 33)
	pb := bd.Proc("main")
	b := pb.NewBlock()
	spec := ir.Load(2, 1, 9999) // r1 = 0, so address 9999: unmapped
	spec.Spec = true
	b.Add(
		spec,
		ir.MovI(3, 5),
		ir.Load(4, 3, 0), // mem[5] = 22
		ir.Add(5, 2, 4),
		ir.Emit(5),
	)
	b.Ret(5)
	return bd.Finish()
}

// switchFallthroughProg builds a merged block whose mid-block switch
// has a NoBlock slot: case sel==1 falls through in-block, everything
// else exits to a real block.
func switchFallthroughProg(sel int64) *ir.Program {
	bd := ir.NewBuilder("swft", 8)
	pb := bd.Proc("main")
	sb, out0, outD := pb.NewBlock(), pb.NewBlock(), pb.NewBlock()
	sb.Add(
		ir.MovI(1, sel),
		ir.Switch(1, out0.ID(), ir.NoBlock, outD.ID()), // case 1 falls through
		ir.MovI(2, 77),
		ir.Emit(2),
	)
	sb.Ret(2)
	out0.Add(ir.MovI(3, 100))
	out0.Ret(3)
	outD.Add(ir.MovI(3, 200))
	outD.Ret(3)
	prog := bd.Program()
	b := prog.Proc(0).Blocks[0]
	b.Cycles = []int32{0, 1, 1, 2, 3}
	b.Span = 4
	b.SBSize = 2
	b.ExitUnits = []int32{0, 1, 0, 0, 0}
	if err := ir.Verify(prog); err != nil {
		panic(err)
	}
	return prog
}

// callFallthroughProg builds a merged block with a mid-block call whose
// continuation slot is NoBlock, so the caller resumes in-block.
func callFallthroughProg() *ir.Program {
	bd := ir.NewBuilder("callft", 8)
	pb := bd.Proc("main")
	leaf := bd.Proc("leaf")
	lb := leaf.NewBlock()
	lb.Add(ir.AddI(0, ir.RegArg0, 1))
	lb.Ret(0)
	b := pb.NewBlock()
	b.Add(
		ir.MovI(2, 41),
		ir.Call(3, leaf.ID(), ir.NoBlock, 2),
		ir.Emit(3),
	)
	b.Ret(3)
	return bd.Finish()
}

// rareOpProg builds a one-block main that sets r1 = 1, then runs body
// (which should return r2), bypassing the verifier: it reaches the
// dispatch cases no verifier-clean program does.
func rareOpProg(name string, body ...ir.Instr) *ir.Program {
	bd := ir.NewBuilder(name, 8)
	b := bd.Proc("main").NewBlock()
	b.Add(ir.MovI(1, 1))
	b.Add(body...)
	return bd.Program()
}

func TestDecodedMatchesReferenceHandCases(t *testing.T) {
	cases := []struct {
		name string
		prog *ir.Program
	}{
		{"sumLoop", sumLoop(500)},
		{"mergedEarlyExit", mergedProg(1)},
		{"mergedCompletion", mergedProg(0)},
		{"specLoad", specLoadProg()},
		{"switchFallthroughTaken", switchFallthroughProg(0)},
		{"switchFallthroughFT", switchFallthroughProg(1)},
		{"switchFallthroughDefault", switchFallthroughProg(9)},
		{"callFallthrough", callFallthroughProg()},
		// A branch with both slots NoBlock counts and falls through; an
		// unknown opcode, a call to a missing procedure and control
		// running off the end of a block are runtime errors.
		{"branchBothFallThrough", rareOpProg("bothft", ir.Br(1, ir.NoBlock, ir.NoBlock), ir.MovI(2, 5), ir.Ret(2))},
		{"unknownOpcode", rareOpProg("badop", ir.Instr{Op: ir.Opcode(200), Dst: 2}, ir.Ret(2))},
		{"unknownCallee", rareOpProg("badcall", ir.Call(2, 7, ir.NoBlock, 1), ir.Ret(2))},
		{"fellOffEnd", rareOpProg("falloff", ir.MovI(2, 3), ir.Br(1, ir.NoBlock, 0))},
	}
	for _, tc := range cases {
		diffRun(t, tc.name, tc.prog)
	}
}

func TestDecodedMatchesReferenceErrors(t *testing.T) {
	// Unmapped non-speculative load: both engines must fail with the
	// same error.
	bd := ir.NewBuilder("badload", 8)
	pb := bd.Proc("main")
	b := pb.NewBlock()
	b.Add(ir.Load(2, 1, -5))
	b.Ret(2)
	diffRun(t, "unmappedLoad", bd.Finish())

	// The same fault at the head of a load+addi pair tile.
	bd = ir.NewBuilder("badloadpair", 8)
	pb = bd.Proc("main")
	b = pb.NewBlock()
	b.Add(ir.Load(2, 1, -5), ir.AddI(3, 2, 1))
	b.Ret(3)
	diffRun(t, "unmappedLoadPair", bd.Finish())

	// Unmapped store likewise.
	bd = ir.NewBuilder("badstore", 8)
	pb = bd.Proc("main")
	b = pb.NewBlock()
	b.Add(ir.Store(1, 99, 1))
	b.Ret(1)
	diffRun(t, "unmappedStore", bd.Finish())
}

// --- randomized differential property test ---------------------------

// genRng is a splitmix64; the generator must be deterministic per seed.
type genRng struct{ s uint64 }

func (r *genRng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *genRng) intn(n int64) int64 { return int64(r.next() % uint64(n)) }

// progGen emits one random structured procedure body. Programs always
// terminate: loops count down bounded counters and recursion decreases
// its argument to a base case.
type progGen struct {
	rng *genRng
	pb  *ir.ProcBuilder
	cur *ir.BlockBuilder
	// callees this proc may call (later procs only, to bound depth;
	// plus itself when selfRec is set, guarded by the decreasing arg).
	callees []ir.ProcID
	selfRec bool
	self    ir.ProcID
}

const (
	memWords  = 64
	genRegLo  = ir.Reg(2) // r2..r9 are scratch
	genRegHi  = ir.Reg(9)
	maxStmts  = 12
	recCutoff = 6 // recursion depth bound via decreasing arg
)

func (g *progGen) reg() ir.Reg { return genRegLo + ir.Reg(g.rng.intn(int64(genRegHi-genRegLo+1))) }

// stmt emits one random statement into the current block, possibly
// splitting it (if/loop/switch create new blocks).
func (g *progGen) stmt(depth int) {
	r := g.rng
	switch pick := r.intn(10); {
	case pick < 3: // arithmetic
		d, a, b := g.reg(), g.reg(), g.reg()
		switch r.intn(12) {
		case 0:
			g.cur.Add(ir.Add(d, a, b))
		case 1:
			g.cur.Add(ir.Sub(d, a, b))
		case 2:
			g.cur.Add(ir.MulI(d, a, r.intn(7)-3))
		case 3:
			g.cur.Add(ir.XorI(d, a, r.intn(1000)))
		case 4:
			g.cur.Add(ir.ShrI(d, a, r.intn(8)))
		case 5:
			g.cur.Add(ir.CmpLTI(d, a, r.intn(100)-50))
		case 6:
			g.cur.Add(ir.Shl(d, a, b))
		case 7:
			g.cur.Add(ir.Shr(d, a, b))
		case 8:
			g.cur.Add(ir.CmpLE(d, a, b))
		case 9:
			g.cur.Add(ir.CmpLEI(d, a, r.intn(100)-50))
		case 10:
			g.cur.Add(ir.Mov(d, a))
		default:
			g.cur.Add(ir.MovI(d, r.intn(2000)-1000))
		}
	case pick < 4: // emit
		g.cur.Add(ir.Emit(g.reg()))
	case pick < 6: // memory: mask the base into [0,memWords) first
		base, v := g.reg(), g.reg()
		g.cur.Add(ir.AndI(base, v, memWords-1))
		if r.intn(2) == 0 {
			g.cur.Add(ir.Store(base, 0, g.reg()))
		} else {
			g.cur.Add(ir.Load(v, base, 0))
		}
	case pick < 7: // speculative load, sometimes unmapped
		d, b := g.reg(), g.reg()
		l := ir.Load(d, b, r.intn(3*memWords)-memWords)
		l.Spec = true
		g.cur.Add(l)
	case pick < 8 && depth < 3: // if/else
		c := g.reg()
		g.cur.Add(ir.CmpGTI(c, g.reg(), r.intn(40)-20))
		then, els, join := g.pb.NewBlock(), g.pb.NewBlock(), g.pb.NewBlock()
		g.cur.Br(c, then.ID(), els.ID())
		g.cur = then
		g.block(depth+1, r.intn(3)+1)
		g.cur.Jmp(join.ID())
		g.cur = els
		g.block(depth+1, r.intn(3)+1)
		g.cur.Jmp(join.ID())
		g.cur = join
	case pick < 9 && depth < 3: // bounded countdown loop
		// The counter and its test live outside the scratch range so a
		// random statement in the body can never clobber them (which
		// would make the loop non-terminating).
		cnt, c := ir.Reg(16+2*depth), ir.Reg(17+2*depth)
		g.cur.Add(ir.MovI(cnt, r.intn(6)+1))
		head, body, exit := g.pb.NewBlock(), g.pb.NewBlock(), g.pb.NewBlock()
		g.cur.Jmp(head.ID())
		head.Add(ir.CmpGTI(c, cnt, 0))
		head.Br(c, body.ID(), exit.ID())
		g.cur = body
		g.block(depth+1, r.intn(3)+1)
		g.cur.Add(ir.AddI(cnt, cnt, -1))
		g.cur.Jmp(head.ID())
		g.cur = exit
	default: // switch or call
		if r.intn(2) == 0 {
			idx := g.reg()
			g.cur.Add(ir.AndI(idx, g.reg(), 3))
			n := int(r.intn(3)) + 2 // 2-4 cases + default
			arms := make([]*ir.BlockBuilder, n+1)
			targets := make([]ir.BlockID, n+1)
			for i := range arms {
				arms[i] = g.pb.NewBlock()
				targets[i] = arms[i].ID()
			}
			join := g.pb.NewBlock()
			g.cur.Switch(idx, targets...)
			for _, arm := range arms {
				g.cur = arm
				g.cur.Add(ir.MovI(g.reg(), r.intn(50)))
				g.cur.Jmp(join.ID())
			}
			g.cur = join
		} else if len(g.callees) > 0 || g.selfRec {
			d := g.reg()
			cont := g.pb.NewBlock()
			if g.selfRec && (len(g.callees) == 0 || r.intn(2) == 0) {
				// Recursive call on a sharply decreasing argument: a body
				// may hold several such calls, so the depth bound must
				// keep the activation tree (branching^depth) small.
				arg := g.reg()
				g.cur.Add(ir.AddI(arg, ir.RegArg0, -2))
				g.cur.Call(d, g.self, cont.ID(), arg)
			} else {
				// Mask the first argument so a callee that recurses on
				// it bottoms out quickly.
				callee := g.callees[r.intn(int64(len(g.callees)))]
				arg := g.reg()
				g.cur.Add(ir.AndI(arg, arg, 7))
				g.cur.Call(d, callee, cont.ID(), arg, g.reg())
			}
			g.cur = cont
		} else {
			g.cur.Add(ir.Nop())
		}
	}
}

func (g *progGen) block(depth int, stmts int64) {
	for i := int64(0); i < stmts; i++ {
		g.stmt(depth)
	}
}

// buildProc fills pb with a random body. Recursive procs guard their
// body behind an arg check so recursion always bottoms out.
func buildProc(r *genRng, pb *ir.ProcBuilder, callees []ir.ProcID, selfRec bool) {
	g := &progGen{rng: r, pb: pb, callees: callees, selfRec: selfRec, self: pb.ID()}
	entry := pb.NewBlock()
	g.cur = entry
	if selfRec {
		// if arg0 <= 0: return 1
		base, body := pb.NewBlock(), pb.NewBlock()
		c := ir.Reg(10)
		entry.Add(ir.CmpLEI(c, ir.RegArg0, 0))
		entry.Br(c, base.ID(), body.ID())
		base.Add(ir.MovI(2, 1))
		base.Ret(2)
		g.cur = body
	}
	g.block(0, r.intn(maxStmts)+3)
	ret := g.reg()
	g.cur.Add(ir.AndI(ret, ret, 0xffff))
	g.cur.Ret(ret)
}

// randomProgram builds a deterministic random program for a seed:
// main -> {helper, recursive helper}, with structured control flow.
func randomProgram(seed uint64) *ir.Program {
	r := &genRng{s: seed}
	bd := ir.NewBuilder(fmt.Sprintf("rand%d", seed), memWords)
	bd.Data(0, 3, 1, 4, 1, 5, 9, 2, 6)
	main := bd.Proc("main")
	helper := bd.Proc("helper")
	rec := bd.Proc("rec")
	buildProc(r, rec, nil, true)
	buildProc(r, helper, []ir.ProcID{rec.ID()}, false)
	buildProc(r, main, []ir.ProcID{helper.ID(), rec.ID()}, false)
	bd.SetMain(main.ID())
	prog := bd.Finish()
	return prog
}

// annotateRandom decorates some blocks with schedule and superblock
// metadata so the differential covers exitCycles/exitUnits precompute:
// the specific numbers are arbitrary, both engines must read them
// identically.
func annotateRandom(r *genRng, prog *ir.Program) {
	for _, p := range prog.Procs {
		for _, b := range p.Blocks {
			if len(b.Instrs) == 0 || r.intn(3) != 0 {
				continue
			}
			b.Cycles = make([]int32, len(b.Instrs))
			c := int32(0)
			for i := range b.Cycles {
				c += int32(r.intn(2))
				b.Cycles[i] = c
			}
			b.Span = c + 1 + int32(r.intn(3))
			if r.intn(2) == 0 {
				b.SBSize = int32(r.intn(4)) + 1
				b.SBIndex = 0
				if r.intn(2) == 0 {
					b.ExitUnits = make([]int32, len(b.Instrs))
					for i := range b.ExitUnits {
						b.ExitUnits[i] = int32(r.intn(int64(b.SBSize) + 1))
					}
				}
			}
		}
	}
}

// renameRegs returns a clone of prog in which every register ≥ r8 is
// renamed injectively, per seed, to a sparse number anywhere from r8
// to v500. r0–r7 carry the call protocol and keep their numbers.
func renameRegs(prog *ir.Program, seed uint64) *ir.Program {
	r := &genRng{s: seed ^ 0x5eed}
	to, used := map[ir.Reg]ir.Reg{}, map[ir.Reg]bool{}
	rename := func(reg ir.Reg) ir.Reg {
		if reg <= ir.MaxArgs {
			return reg
		}
		if n, ok := to[reg]; ok {
			return n
		}
		n := ir.Reg(0)
		for n == 0 || used[n] {
			n = ir.MaxArgs + 1 + ir.Reg(r.intn(int64(ir.VirtBase+500-ir.MaxArgs)))
		}
		to[reg], used[n] = n, true
		return n
	}
	out := ir.CloneProgram(prog)
	for _, p := range out.Procs {
		for _, b := range p.Blocks {
			for i := range b.Instrs {
				ins := &b.Instrs[i]
				ins.Dst, ins.Src1, ins.Src2 = rename(ins.Dst), rename(ins.Src1), rename(ins.Src2)
				for k, a := range ins.Args {
					ins.Args[k] = rename(a)
				}
			}
		}
	}
	return out
}

// diffRenamed fails unless renamed, a renameRegs twin of prog, runs
// exactly like prog on both engines — Result or error, batch stream —
// and gives the same RunCounted counts. Dense
// frame slots follow first mention, so the twins must also decode to
// identical code.
func diffRenamed(t *testing.T, name string, prog, renamed *ir.Program) {
	t.Helper()
	if err := ir.Verify(renamed); err != nil {
		t.Fatalf("%s: renamed program fails verify: %v", name, err)
	}
	for _, eng := range []struct {
		name string
		run  func(*ir.Program, Config) (*Result, error)
	}{{"decoded", Run}, {"reference", referenceRun}} {
		var bats [2]batchLog
		for _, mode := range []string{"bare", "batch"} {
			var res [2]*Result
			var errs [2]error
			for i, p := range []*ir.Program{prog, renamed} {
				var cfg Config
				if mode == "batch" {
					cfg.Batch = &bats[i]
				}
				res[i], errs[i] = eng.run(p, cfg)
			}
			if fmt.Sprint(errs[0]) != fmt.Sprint(errs[1]) || !reflect.DeepEqual(res[0], res[1]) {
				t.Fatalf("%s/%s/%s: renamed run diverges\noriginal: %+v %v\nrenamed:  %+v %v",
					name, eng.name, mode, res[0], errs[0], res[1], errs[1])
			}
		}
		if !reflect.DeepEqual(bats[0], bats[1]) {
			t.Fatalf("%s/%s: renamed event streams diverge", name, eng.name)
		}
	}
	e0, e1 := EngineFor(prog), EngineFor(renamed)
	for i := range e0.procs {
		d0, d1 := &e0.procs[i], &e1.procs[i]
		if !reflect.DeepEqual(d0.code, d1.code) || !reflect.DeepEqual(d0.args, d1.args) || d0.frameLen != d1.frameLen {
			t.Fatalf("%s: proc %d decodes differently after renaming", name, i)
		}
	}
	_, c0, err0 := e0.RunCounted(Config{})
	_, c1, err1 := e1.RunCounted(Config{})
	if fmt.Sprint(err0) != fmt.Sprint(err1) || (err0 == nil && !reflect.DeepEqual(tallyCounts(c0), tallyCounts(c1))) {
		t.Fatalf("%s: renamed counted run diverges (errors %v, %v)", name, err0, err1)
	}
}

func TestDecodedMatchesReferenceRandomPrograms(t *testing.T) {
	// Seed the recursion argument (RegArg0 of main is 0; rec guards on
	// its own arg) — the generator bounds loops and recursion, so every
	// program terminates well inside the default step budget.
	n := uint64(300)
	if testing.Short() {
		n = 60
	}
	for seed := uint64(1); seed <= n; seed++ {
		prog := randomProgram(seed)
		if err := ir.Verify(prog); err != nil {
			t.Fatalf("seed %d: generated program fails verify: %v", seed, err)
		}
		diffRun(t, fmt.Sprintf("seed%d/plain", seed), prog)
		diffRenamed(t, fmt.Sprintf("seed%d/plain", seed), prog, renameRegs(prog, seed))

		r := &genRng{s: seed ^ 0xabcdef}
		annotateRandom(r, prog)
		diffRun(t, fmt.Sprintf("seed%d/annotated", seed), prog)
		diffRenamed(t, fmt.Sprintf("seed%d/annotated", seed), prog, renameRegs(prog, seed))
	}
}

// --- data segment validation (regression) ----------------------------

func TestDataSegmentValidation(t *testing.T) {
	build := func(addr int64, vals ...int64) *ir.Program {
		bd := ir.NewBuilder("data", 8)
		bd.Data(addr, vals...)
		pb := bd.Proc("main")
		b := pb.NewBlock()
		b.Add(ir.MovI(1, 0))
		b.Ret(1)
		return bd.Program()
	}
	cases := []struct {
		name string
		prog *ir.Program
	}{
		{"negativeAddr", build(-1, 5)},
		{"pastEnd", build(9, 5)},
		{"overflowsEnd", build(6, 1, 2, 3)},
	}
	for _, tc := range cases {
		for engine, runFn := range map[string]func(*ir.Program, Config) (*Result, error){
			"decoded": Run, "reference": referenceRun,
		} {
			if _, err := runFn(tc.prog, Config{}); err == nil {
				t.Errorf("%s/%s: bad data segment must error, not panic or pass", tc.name, engine)
			}
		}
	}
	// A segment exactly filling memory is legal.
	ok := build(4, 1, 2, 3, 4)
	if _, err := Run(ok, Config{}); err != nil {
		t.Errorf("segment filling memory exactly should run: %v", err)
	}
}
