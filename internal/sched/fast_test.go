package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"pathsched/internal/core"
	"pathsched/internal/ir"
	"pathsched/internal/ir/irtest"
	"pathsched/internal/machine"
	"pathsched/internal/regalloc"
)

// randItems generates a random linear scheduling region mixing
// architectural and virtual registers, loads, stores, emits, and exit
// branches with random live-out sets — the full vocabulary the
// dependence rules discriminate on. The final item is always an exit
// (as in every real region).
func randItems(rng *rand.Rand, n int) []DepItem {
	items := make([]DepItem, 0, n)
	reg := func() ir.Reg {
		if rng.Intn(3) == 0 {
			return ir.VirtBase + ir.Reg(rng.Intn(12))
		}
		return ir.Reg(rng.Intn(16))
	}
	randLiveOut := func() RegSet {
		var s RegSet
		for k := 0; k < 4; k++ {
			s.Add(ir.Reg(rng.Intn(ir.PhysRegs)))
		}
		return s
	}
	for i := 0; i < n-1; i++ {
		var it DepItem
		switch rng.Intn(8) {
		case 0:
			it.Ins = ir.Load(reg(), reg(), int64(rng.Intn(8)))
			it.Ins.Spec = rng.Intn(2) == 0
		case 1:
			it.Ins = ir.Store(reg(), int64(rng.Intn(8)), reg())
		case 2:
			it.Ins = ir.Emit(reg())
		case 3:
			it.Ins = ir.Br(reg(), 1, 2)
			it.IsExit = true
			it.LiveOut = randLiveOut()
		case 4:
			it.Ins = ir.MovI(reg(), int64(rng.Intn(100)))
		case 5:
			it.Ins = ir.Mul(reg(), reg(), reg())
		default:
			it.Ins = ir.Add(reg(), reg(), reg())
		}
		items = append(items, it)
	}
	fin := DepItem{Ins: ir.Ret(reg()), IsExit: true, LiveOut: randLiveOut()}
	items = append(items, fin)
	return items
}

// randNodes is randItems reshaped into scheduler nodes, with units
// assigned in nondecreasing order as merging would.
func randNodes(rng *rand.Rand, n int) []node {
	items := randItems(rng, n)
	nodes := make([]node, len(items))
	unit := 0
	for i, it := range items {
		nodes[i] = node{ins: it.Ins, unit: unit, isExit: it.IsExit, liveOut: it.LiveOut}
		if it.IsExit {
			unit++
		}
	}
	return nodes
}

// The dense allocation-free dependence computation must produce the
// exact edge slice — same edges, same order — as the reference
// map-based implementation it replaced, including across scratch
// reuse (stale tables from a previous, larger region must not leak).
func TestDependencesFastMatchesReference(t *testing.T) {
	mc := machine.Default()
	var s depScratch // reused across all iterations, like one Compact call
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 500; iter++ {
		n := 1 + rng.Intn(60)
		items := randItems(rng, n)
		got := s.dependences(items, mc)
		want := refDependences(items, mc)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d (n=%d): fast dependences diverge\n got: %v\nwant: %v", iter, n, got, want)
		}
	}
}

// The public wrapper must match too (it owns a fresh scratch).
func TestDependencesWrapperMatchesReference(t *testing.T) {
	mc := machine.Default()
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 50; iter++ {
		items := randItems(rng, 1+rng.Intn(40))
		got, want := Dependences(items, mc), refDependences(items, mc)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: Dependences diverges from reference", iter)
		}
	}
}

// The incremental rank/bitset list scheduler must produce bit-identical
// cycle assignments and spans to the reference per-cycle-sort
// implementation, over the same graphs, with scratch reuse.
func TestListScheduleFastMatchesReference(t *testing.T) {
	mc := machine.Default()
	s := newScratch()
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 500; iter++ {
		nodes := randNodes(rng, 1+rng.Intn(60))
		gFast, edgesFast := buildDDG(nodes, mc, s)
		gRef, edgesRef := refBuildDDG(nodes, mc)
		if !reflect.DeepEqual(edgesFast, edgesRef) && (len(edgesFast) != 0 || len(edgesRef) != 0) {
			t.Fatalf("iter %d: buildDDG edges diverge", iter)
		}
		if !reflect.DeepEqual(gFast.npreds, gRef.npreds) || !reflect.DeepEqual(gFast.height, gRef.height) {
			t.Fatalf("iter %d: buildDDG npreds/height diverge", iter)
		}
		cyc, span, err := listSchedule(nodes, gFast, mc, s)
		refCyc, refSpan, refErr := refListSchedule(nodes, gRef, mc)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("iter %d: error mismatch: %v vs %v", iter, err, refErr)
		}
		if err != nil {
			continue
		}
		if span != refSpan {
			t.Fatalf("iter %d: span %d vs reference %d", iter, span, refSpan)
		}
		for i := range cyc {
			if cyc[i] != refCyc[i] {
				t.Fatalf("iter %d: cycle[%d] = %d, reference %d", iter, i, cyc[i], refCyc[i])
			}
		}
	}
}

// ForEach must enumerate exactly the members, in increasing register
// order, across both bitset words and at the word boundaries.
func TestRegSetForEach(t *testing.T) {
	cases := [][]ir.Reg{
		{},
		{0},
		{63},
		{64},
		{127},
		{0, 63, 64, 127},
		{3, 5, 62, 65, 100},
	}
	rng := rand.New(rand.NewSource(17))
	for c := 0; c < 20; c++ {
		var regs []ir.Reg
		seen := map[ir.Reg]bool{}
		for k := rng.Intn(20); k > 0; k-- {
			r := ir.Reg(rng.Intn(ir.PhysRegs))
			if !seen[r] {
				seen[r] = true
				regs = append(regs, r)
			}
		}
		cases = append(cases, regs)
	}
	for ci, regs := range cases {
		var s RegSet
		want := map[ir.Reg]bool{}
		for _, r := range regs {
			s.Add(r)
			want[r] = true
		}
		var got []ir.Reg
		s.ForEach(func(r ir.Reg) { got = append(got, r) })
		if len(got) != len(want) {
			t.Fatalf("case %d: ForEach visited %d regs, want %d", ci, len(got), len(want))
		}
		for i, r := range got {
			if !want[r] {
				t.Fatalf("case %d: ForEach visited non-member r%d", ci, r)
			}
			if i > 0 && got[i-1] >= r {
				t.Fatalf("case %d: ForEach out of order: r%d before r%d", ci, got[i-1], r)
			}
		}
	}
}

// benchRegion builds one deterministic large scheduling region for the
// microbenchmarks — big enough that per-node costs dominate setup.
func benchRegion(n int) ([]DepItem, []node) {
	rng := rand.New(rand.NewSource(42))
	items := randItems(rng, n)
	nodes := make([]node, len(items))
	unit := 0
	for i, it := range items {
		nodes[i] = node{ins: it.Ins, unit: unit, isExit: it.IsExit, liveOut: it.LiveOut}
		if it.IsExit {
			unit++
		}
	}
	return items, nodes
}

func BenchmarkDependences(b *testing.B) {
	items, _ := benchRegion(256)
	mc := machine.Default()
	var s depScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.dependences(items, mc)
	}
}

func BenchmarkDependencesReference(b *testing.B) {
	items, _ := benchRegion(256)
	mc := machine.Default()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refDependences(items, mc)
	}
}

func BenchmarkListSchedule(b *testing.B) {
	_, nodes := benchRegion(256)
	mc := machine.Default()
	s := newScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, _ := buildDDG(nodes, mc, s)
		if _, _, err := listSchedule(nodes, g, mc, s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkListScheduleReference(b *testing.B) {
	_, nodes := benchRegion(256)
	mc := machine.Default()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, _ := refBuildDDG(nodes, mc)
		if _, _, err := refListSchedule(nodes, g, mc); err != nil {
			b.Fatal(err)
		}
	}
}

// poolRegs lists a pool's registers in increasing order: the seed
// allocator's slice form of the same free set.
func poolRegs(p regalloc.Pool) []ir.Reg {
	var regs []ir.Reg
	for r := ir.Reg(0); r < ir.VirtBase; r++ {
		if p.Has(r) {
			regs = append(regs, r)
		}
	}
	return regs
}

// randPool draws a pool of 0–128 physical registers, half the time a
// small one so that pressure failures are common.
func randPool(rng *rand.Rand) regalloc.Pool {
	k := rng.Intn(ir.PhysRegs + 1)
	if rng.Intn(2) == 0 {
		k = rng.Intn(9)
	}
	var regs []ir.Reg
	for _, r := range rng.Perm(ir.PhysRegs)[:k] {
		regs = append(regs, ir.Reg(r))
	}
	return regalloc.PoolOf(regs...)
}

// randAllocBlock generates an allocator input shaped like a renamed,
// scheduled head block: sparse virtual names (up to v5000) defined in
// a random order, physical operands mixed in, call arguments, and
// random pressure (reads draw from a window of the most recent defs
// whose width varies per block). One block in four also carries the
// renaming bugs the allocator must reject: second definitions of a
// virtual, and reads of virtuals not (yet) defined.
func randAllocBlock(rng *rand.Rand) *ir.Block {
	n := 1 + rng.Intn(60)
	names := rng.Perm(5000)[:n+1]
	var defined []ir.Reg
	next := 0
	window := 1 + rng.Intn(24)
	buggy := rng.Intn(4) == 0
	def := func() ir.Reg {
		switch {
		case buggy && len(defined) > 0 && rng.Intn(40) == 0:
			return defined[rng.Intn(len(defined))] // double definition
		case rng.Intn(4) == 0:
			return ir.Reg(rng.Intn(ir.PhysRegs))
		}
		r := v(int32(names[next]))
		next++
		defined = append(defined, r)
		return r
	}
	src := func() ir.Reg {
		switch {
		case buggy && rng.Intn(40) == 0:
			return v(int32(names[rng.Intn(len(names))])) // maybe not defined yet
		case len(defined) > 0 && rng.Intn(3) != 0:
			recent := defined[max(0, len(defined)-window):]
			return recent[rng.Intn(len(recent))]
		}
		return ir.Reg(rng.Intn(ir.PhysRegs))
	}
	b := &ir.Block{}
	for i := 0; i < n-1; i++ {
		var ins ir.Instr
		switch rng.Intn(8) {
		case 0:
			ins = ir.MovI(def(), int64(i))
		case 1:
			a := src() // sources first: a def may not feed itself
			ins = ir.AddI(def(), a, int64(i))
		case 2:
			ins = ir.Store(src(), int64(i), src())
		case 3:
			ins = ir.Emit(src())
		case 4:
			args := make([]ir.Reg, rng.Intn(4))
			for k := range args {
				args[k] = src()
			}
			ins = ir.Call(def(), 0, ir.NoBlock, args...)
		case 5:
			ins = ir.Br(src(), 1, ir.NoBlock)
		default:
			a, b := src(), src()
			ins = ir.Add(def(), a, b)
		}
		b.Instrs = append(b.Instrs, ins)
	}
	b.Instrs = append(b.Instrs, ir.Ret(src()))
	return b
}

// allocBoth runs the allocator (on the shared scratch s) and the seed
// allocator on independent copies of blk and reports any divergence in
// error text or in the rewritten instructions — also after an error,
// where both must have stopped at the same point. It returns the
// common error text ("" on success).
func allocBoth(s *regalloc.Scratch, blk *ir.Block, pool regalloc.Pool) (string, error) {
	clone := func() *ir.Block {
		c := &ir.Block{Instrs: make([]ir.Instr, len(blk.Instrs))}
		for i := range blk.Instrs {
			c.Instrs[i] = blk.Instrs[i].Clone()
		}
		return c
	}
	fast, ref := clone(), clone()
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	got := errText(s.AssignVirtuals(fast, pool))
	want := errText(refAssignVirtuals(ref, poolRegs(pool)))
	if got != want {
		return "", fmt.Errorf("error %q, reference %q", got, want)
	}
	if !reflect.DeepEqual(fast.Instrs, ref.Instrs) {
		return "", fmt.Errorf("rewrites diverge (error %q)\n got: %v\nwant: %v", got, fast.Instrs, ref.Instrs)
	}
	return got, nil
}

// The bitset allocator must rewrite every block exactly as the seed
// allocator does, and fail with the same error text at the same point,
// over random blocks, random pools and one scratch reused throughout
// (stale window tables or expiry sets from a wider block must not
// leak into the next).
func TestAssignVirtualsMatchesReference(t *testing.T) {
	var s regalloc.Scratch
	outcomes := map[string]int{}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		blk, pool := randAllocBlock(rng), randPool(rng)
		msg, err := allocBoth(&s, blk, pool)
		if err != nil {
			t.Logf("seed %d (pool %d): %v", seed, pool.Len(), err)
			return false
		}
		kind, _, _ := strings.Cut(strings.TrimPrefix(msg, "regalloc: "), " ")
		outcomes[kind]++
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
	t.Logf("outcomes by first word of the error (\"\" = allocated): %v", outcomes)
	for _, kind := range []string{"", "out", "virtual", "unresolved"} {
		if outcomes[kind] == 0 {
			t.Fatalf("random blocks never reached outcome %q: %v", kind, outcomes)
		}
	}
}

// Seeded allocator inputs for each error path, each checked against
// the seed allocator.
func TestAssignVirtualsErrorsMatchReference(t *testing.T) {
	cases := []struct {
		name string
		blk  []ir.Instr
		pool regalloc.Pool
		want string
	}{
		{"double definition", []ir.Instr{
			ir.MovI(v(4000), 1), ir.Emit(v(4000)), ir.MovI(v(4000), 2), ir.Ret(0),
		}, regalloc.PoolOf(9, 70), "regalloc: virtual v4000 defined twice"},
		{"use before definition", []ir.Instr{
			ir.Add(1, v(17), 2), ir.MovI(v(17), 3), ir.Ret(1),
		}, regalloc.PoolOf(9), "regalloc: unresolved virtual in"},
		{"unresolved argument", []ir.Instr{
			ir.MovI(v(3), 1), ir.Call(2, 0, ir.NoBlock, v(3), v(4999)), ir.Ret(2),
		}, regalloc.PoolOf(9), "regalloc: unresolved virtual arg in"},
		{"out of registers", []ir.Instr{
			ir.MovI(v(0), 1), ir.MovI(v(900), 2), ir.MovI(v(31), 3),
			ir.Add(4, v(0), v(900)), ir.Add(4, 4, v(31)), ir.Ret(4),
		}, regalloc.PoolOf(5, 100), "regalloc: out of registers at instruction 2 (pool 2)"},
		{"empty pool", []ir.Instr{
			ir.MovI(v(2), 1), ir.Ret(v(2)),
		}, regalloc.Pool{}, "regalloc: out of registers at instruction 0 (pool 0)"},
	}
	var s regalloc.Scratch
	for _, c := range cases {
		msg, err := allocBoth(&s, &ir.Block{Instrs: c.blk}, c.pool)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !strings.HasPrefix(msg, c.want) {
			t.Fatalf("%s: error %q, want prefix %q", c.name, msg, c.want)
		}
	}
}

// FreePool's bitset must hold exactly the seed's sorted free list.
func TestFreePoolMatchesReference(t *testing.T) {
	progs := []*ir.Program{hotTrace(10)}
	for seed := int64(1); seed <= 20; seed++ {
		progs = append(progs, irtest.RandExecProg(seed, 12))
	}
	progs = append(progs, withPoolSize(irtest.RandExecProg(3, 12), 0), withPoolSize(irtest.RandExecProg(3, 12), 2))
	for _, prog := range progs {
		for _, p := range prog.Procs {
			got, want := poolRegs(regalloc.FreePool(p)), refFreePool(p)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: pool %v, reference %v", p.Name, got, want)
			}
		}
	}
}

// allocHead is one renamed, scheduled superblock head as compaction
// hands it to the allocator, with its procedure's pool in both forms.
type allocHead struct {
	proc   ir.ProcID
	instrs []ir.Instr
	pool   regalloc.Pool
	regs   []ir.Reg
}

// preallocHeads runs compactProc's steps up to allocation over every
// superblock of res — merge, then scheduleNodes with renaming, then
// install — and returns a clone of each installed head. It consumes
// res.
func preallocHeads(tb testing.TB, res *core.Result) []allocHead {
	tb.Helper()
	opts := Options{}.withDefaults()
	s := newScratch()
	var heads []allocHead
	for _, p := range res.Prog.Procs {
		live := LiveIn(p)
		pool := regalloc.FreePool(p)
		regs := poolRegs(pool)
		for _, sb := range res.Superblocks[p.ID] {
			nodes, err := mergeSuperblock(p, sb, live, s)
			if err != nil {
				tb.Fatalf("%s sb%d: %v", p.Name, sb.ID, err)
			}
			final, cycles, span, _, err := scheduleNodes(p, nodes, true, opts, s, false, nil)
			if err != nil {
				tb.Fatalf("%s sb%d: %v", p.Name, sb.ID, err)
			}
			head := p.Block(sb.Blocks[0])
			install(p, head, sb, final, cycles, span)
			instrs := make([]ir.Instr, len(head.Instrs))
			for i := range head.Instrs {
				instrs[i] = head.Instrs[i].Clone()
			}
			heads = append(heads, allocHead{proc: p.ID, instrs: instrs, pool: pool, regs: regs})
		}
	}
	return heads
}

// restoreHead copies src into blk, reusing blk's instruction storage
// and the argument arena, so replaying a head allocates nothing once
// both have grown.
func restoreHead(blk *ir.Block, arena *[]ir.Reg, src []ir.Instr) {
	blk.Instrs = append(blk.Instrs[:0], src...)
	n := 0
	for i := range src {
		n += len(src[i].Args)
	}
	if cap(*arena) < n {
		*arena = make([]ir.Reg, n)
	}
	args := (*arena)[:n]
	for i := range blk.Instrs {
		if k := copy(args, src[i].Args); k > 0 {
			blk.Instrs[i].Args = args[:k:k]
			args = args[k:]
		}
	}
}

// BenchmarkAssignVirtuals allocates every renamed head of gcc's P4
// compile, exactly as compaction hands them to the allocator, with the
// bitset allocator on one reused scratch (fast) and the seed allocator
// (reference). Each operation replays all heads; restoring a head into
// reused storage is part of both arms. A warm-up pass grows every
// buffer before timing, so the fast arm reports 0 allocs/op.
func BenchmarkAssignVirtuals(b *testing.B) {
	p4 := benchCases(b, "gcc")[1]
	res, err := core.Form(p4.prog, p4.cfg)
	if err != nil {
		b.Fatal(err)
	}
	heads := preallocHeads(b, res)
	arm := func(alloc func(*ir.Block, allocHead) error) func(*testing.B) {
		return func(b *testing.B) {
			var work ir.Block
			var arena []ir.Reg
			pass := func() {
				for _, h := range heads {
					restoreHead(&work, &arena, h.instrs)
					if err := alloc(&work, h); err != nil {
						b.Fatal(err)
					}
				}
			}
			pass()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pass()
			}
		}
	}
	var s regalloc.Scratch
	b.Run("fast", arm(func(blk *ir.Block, h allocHead) error { return s.AssignVirtuals(blk, h.pool) }))
	b.Run("reference", arm(func(blk *ir.Block, h allocHead) error { return refAssignVirtuals(blk, h.regs) }))
}
