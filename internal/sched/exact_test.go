package sched

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"pathsched/internal/core"
	"pathsched/internal/interp"
	"pathsched/internal/ir"
	"pathsched/internal/machine"
)

// verifyRegionSchedule asserts cycles is a legal schedule of nodes over
// g: every dependence edge satisfied (latency-0 edges may share a
// cycle), per-cycle issue width and branch slots respected, and span
// equal to the last cycle plus one. This is the scheduler-level form of
// the rules check.Schedules enforces on installed blocks.
func verifyRegionSchedule(t *testing.T, nodes []node, g *ddg, mc machine.Config, cycles []int32, span int32) {
	t.Helper()
	n := len(nodes)
	maxC := int32(-1)
	for i := 0; i < n; i++ {
		if cycles[i] < 0 {
			t.Fatalf("node %d unscheduled (cycle %d)", i, cycles[i])
		}
		if cycles[i] > maxC {
			maxC = cycles[i]
		}
		for _, e := range g.succs[i] {
			if cycles[e.to] < cycles[i]+e.lat {
				t.Fatalf("edge %d->%d lat %d violated: cycles %d vs %d", i, e.to, e.lat, cycles[i], cycles[e.to])
			}
		}
	}
	if span != maxC+1 {
		t.Fatalf("span %d, last cycle %d", span, maxC)
	}
	slots := make([]int, span)
	brs := make([]int, span)
	for i := 0; i < n; i++ {
		slots[cycles[i]]++
		if nodes[i].ins.Op.IsBranch() {
			brs[cycles[i]]++
		}
	}
	for c := int32(0); c < span; c++ {
		if slots[c] > mc.FuncUnits {
			t.Fatalf("cycle %d issues %d ops, machine has %d units", c, slots[c], mc.FuncUnits)
		}
		if brs[c] > mc.BranchPerCycle {
			t.Fatalf("cycle %d issues %d branches, machine allows %d", c, brs[c], mc.BranchPerCycle)
		}
	}
}

// refuteSpan tries to find a legal schedule strictly shorter than span
// by exhaustive DFS (assigning cycles in node-index order; all edges
// point forward, so predecessors are always assigned first). It is an
// independent algorithm from the branch-and-bound search — no maximal
// cycle sets, no bounds beyond the span target — so agreement is
// meaningful. Returns true if a shorter schedule exists, false if
// provably none does, and skips (via the ok flag) past the step cap.
func refuteSpan(nodes []node, g *ddg, mc machine.Config, span int32, cap int64) (shorter, ok bool) {
	n := len(nodes)
	if span <= 1 {
		return false, true // nothing is shorter than one cycle
	}
	limit := span - 2 // last usable cycle for a span-1 schedule
	cyc := make([]int32, n)
	slots := make([]int32, span)
	brs := make([]int32, span)
	steps := int64(0)
	var dfs func(i int) bool
	dfs = func(i int) bool {
		if i == n {
			return true
		}
		est := int32(0)
		for j := 0; j < i; j++ {
			for _, e := range g.succs[j] {
				if e.to == i {
					if v := cyc[j] + e.lat; v > est {
						est = v
					}
				}
			}
		}
		isBr := nodes[i].ins.Op.IsBranch()
		for c := est; c <= limit; c++ {
			steps++
			if steps > cap {
				return false
			}
			if slots[c] >= int32(mc.FuncUnits) || (isBr && brs[c] >= int32(mc.BranchPerCycle)) {
				continue
			}
			cyc[i] = c
			slots[c]++
			if isBr {
				brs[c]++
			}
			if dfs(i + 1) {
				return true
			}
			slots[c]--
			if isBr {
				brs[c]--
			}
		}
		return false
	}
	found := dfs(0)
	return found, steps <= cap
}

// The oracle property (500 random regions, both machine models): the
// exact span never exceeds the list span, the result is a legal
// schedule, a proved result meets the lower-bound certificate, and —
// checked by an independent exhaustive search on small regions — a
// proved span really is minimal.
func TestExactOracleRandomRegions(t *testing.T) {
	s := newScratch() // reused across regions, like one Compact call
	cfg := ExactConfig{Enabled: true, NodeBudget: 24, SearchBudget: 2_000_000}.Normalized()
	refuted, verified := 0, 0
	for _, mc := range []machine.Config{machine.Default(), {FuncUnits: 8, BranchPerCycle: 1, Realistic: true}} {
		rng := rand.New(rand.NewSource(42))
		for iter := 0; iter < 250; iter++ {
			n := 1 + rng.Intn(24)
			nodes := randNodes(rng, n)
			g, _ := buildDDG(nodes, mc, s)
			cycles, span, listSpan, status, err := exactSchedule(nodes, g, mc, cfg, s)
			if err != nil {
				t.Fatalf("iter %d (n=%d): %v", iter, n, err)
			}
			if span > listSpan {
				t.Fatalf("iter %d (n=%d): exact span %d exceeds list span %d", iter, n, span, listSpan)
			}
			if status == exactBoundedNodes {
				t.Fatalf("iter %d: n=%d within budget %d reported as node-bounded", iter, n, cfg.NodeBudget)
			}
			verifyRegionSchedule(t, nodes, g, mc, cycles, span)
			// Lower-bound certificate: no schedule beats the critical
			// path or the issue-width floor.
			lb := (int32(n) + int32(mc.FuncUnits) - 1) / int32(mc.FuncUnits)
			for i := 0; i < n; i++ {
				if h := g.height[i] + 1; h > lb {
					lb = h
				}
			}
			if span < lb {
				t.Fatalf("iter %d (n=%d): span %d below lower bound %d — bound or search is wrong", iter, n, span, lb)
			}
			if status == exactProved && n <= 12 {
				shorter, ok := refuteSpan(nodes, g, mc, span, 4_000_000)
				if !ok {
					continue // refutation search hit its step cap; skip
				}
				verified++
				if shorter {
					refuted++
					t.Errorf("iter %d (n=%d): proved span %d but exhaustive search found shorter", iter, n, span)
				}
			}
		}
	}
	if verified < 100 {
		t.Fatalf("only %d proved regions cross-checked exhaustively; generator or budgets drifted", verified)
	}
	if refuted > 0 {
		t.Fatalf("%d proved spans refuted", refuted)
	}
}

// A cyclic dependence graph must surface as the structured *CycleError
// immediately — the incumbent list schedule runs first and fails fast —
// never as a search that spins against its budget.
func TestExactCycleErrorRegression(t *testing.T) {
	nodes := []node{
		{ins: ir.MovI(8, 1)},
		{ins: ir.MovI(9, 2)},
		{ins: ir.Ret(8)},
	}
	g := &ddg{
		succs:  [][]edge{{{to: 1, lat: 1}}, {{to: 0, lat: 1}}, nil},
		npreds: []int{1, 1, 0},
		height: []int32{1, 1, 0},
	}
	// A one-step search budget: if the search ran at all before the
	// cycle check, it would return Bounded instead of the error.
	cfg := ExactConfig{Enabled: true, SearchBudget: 1}.Normalized()
	_, _, _, _, err := exactSchedule(nodes, g, machine.Default(), cfg, newScratch())
	if err == nil {
		t.Fatal("exactSchedule on a cyclic DDG returned no error")
	}
	var ce *CycleError
	if !errors.As(err, &ce) {
		t.Fatalf("got %T (%v), want *CycleError", err, err)
	}
	if ce.Remaining != 2 {
		t.Errorf("Remaining = %d, want 2", ce.Remaining)
	}
}

// Cutoff boundaries: a region exactly at the node budget is searched,
// one above it falls back to the list schedule (cycle-for-cycle) with
// the Bounded marker, and an exhausted search budget keeps the
// incumbent while marking the region bounded too.
func TestExactCutoffBoundary(t *testing.T) {
	mc := machine.Default()
	rng := rand.New(rand.NewSource(99))
	s := newScratch()
	for iter := 0; iter < 50; iter++ {
		n := 4 + rng.Intn(20)
		nodes := randNodes(rng, n)
		g, _ := buildDDG(nodes, mc, s)

		listRef, listSpanRef, err := listSchedule(nodes, g, mc, newScratch())
		if err != nil {
			t.Fatal(err)
		}
		listCopy := append([]int32(nil), listRef...)

		// At the budget: the search runs (never node-bounded).
		at := ExactConfig{Enabled: true, NodeBudget: n, SearchBudget: 1_000_000}.Normalized()
		_, _, _, status, err := exactSchedule(nodes, g, mc, at, s)
		if err != nil {
			t.Fatal(err)
		}
		if status == exactBoundedNodes {
			t.Fatalf("iter %d: n=%d at budget %d was node-bounded", iter, n, at.NodeBudget)
		}

		// One below: the fallback is the list schedule, bit for bit.
		below := ExactConfig{Enabled: true, NodeBudget: n - 1, SearchBudget: 1_000_000}.Normalized()
		if below.NodeBudget != n-1 {
			t.Fatalf("budget %d normalized away", n-1)
		}
		cycles, span, listSpan, status, err := exactSchedule(nodes, g, mc, below, s)
		if err != nil {
			t.Fatal(err)
		}
		if status != exactBoundedNodes {
			t.Fatalf("iter %d: n=%d above budget %d not node-bounded (status %d)", iter, n, below.NodeBudget, status)
		}
		if span != listSpanRef || listSpan != listSpanRef {
			t.Fatalf("iter %d: bounded span %d/%d, list %d", iter, span, listSpan, listSpanRef)
		}
		for i := range listCopy {
			if cycles[i] != listCopy[i] {
				t.Fatalf("iter %d: bounded fallback diverges from list schedule at node %d", iter, i)
			}
		}

		// Starved search budget: bounded (unless proved before the first
		// step — the certificate short-circuit), incumbent still legal.
		tiny := ExactConfig{Enabled: true, NodeBudget: n, SearchBudget: 1}.Normalized()
		cycles, span, _, status, err = exactSchedule(nodes, g, mc, tiny, s)
		if err != nil {
			t.Fatal(err)
		}
		if status != exactProved && status != exactBoundedSearch {
			t.Fatalf("iter %d: starved search status %d", iter, status)
		}
		verifyRegionSchedule(t, nodes, g, mc, cycles, span)
	}
}

// GapStats bookkeeping at the region level: proved/bounded/improved
// counters partition the blocks, and sums cover proved regions only.
func TestExactGapStatsAccounting(t *testing.T) {
	var gs GapStats
	gs.add(gapRecord{valid: true, status: exactProved, listSpan: 10, exactSpan: 9})
	gs.add(gapRecord{valid: true, status: exactProved, listSpan: 7, exactSpan: 7})
	gs.add(gapRecord{valid: true, status: exactBoundedNodes, listSpan: 20, exactSpan: 20})
	gs.add(gapRecord{valid: true, status: exactBoundedSearch, listSpan: 20, exactSpan: 19})
	gs.add(gapRecord{}) // invalid: never scheduled (error path)
	want := GapStats{Blocks: 4, Proved: 2, Bounded: 2, BoundedSearch: 1, Improved: 1, ListSpan: 17, ExactSpan: 16}
	if gs != want {
		t.Fatalf("gap stats %+v, want %+v", gs, want)
	}
	if pct := gs.PctOfOptimal(); pct <= 94.0 || pct >= 94.2 {
		t.Fatalf("PctOfOptimal() = %v, want ~94.1", pct)
	}
	if pct := (&GapStats{}).PctOfOptimal(); pct != 100 {
		t.Fatalf("empty PctOfOptimal() = %v, want 100", pct)
	}
}

// Exact compaction end to end: semantics preserved, every region
// either proved or bounded, and a repeated compile byte-identical with
// identical gap counters (the budgets count search steps, not time).
// Random programs run at the default budgets; wc and alt run under
// budgets tight enough to force Bounded fallbacks.
func TestExactCompactDeterminismAndSemantics(t *testing.T) {
	type exactCase struct {
		formCase
		ecfg ExactConfig
	}
	var cases []exactCase
	for _, seed := range []int64{3, 17} {
		prog := randProg(seed)
		fc := formCase{fmt.Sprintf("seed%d", seed), prog, trainedConfig(t, prog, core.PathBased)}
		cases = append(cases, exactCase{fc, ExactConfig{Enabled: true}})
	}
	tight := ExactConfig{Enabled: true, NodeBudget: 16, SearchBudget: 50000}
	for _, name := range []string{"wc", "alt"} {
		for _, fc := range benchCases(t, name) {
			cases = append(cases, exactCase{fc, tight})
		}
	}
	for _, c := range cases {
		orig, err := interp.Run(c.prog, interp.Config{})
		if err != nil {
			t.Fatal(err)
		}
		var gap, again GapStats
		res := formAndCompact(t, c.prog, c.cfg, Options{Exact: c.ecfg, GapStats: &gap})
		got, err := interp.Run(res.Prog, interp.Config{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		mustMatch(t, orig, got, c.name+" exact-compact")
		if gap.Blocks != gap.Proved+gap.Bounded {
			t.Fatalf("%s: gap partition broken: %+v", c.name, gap)
		}
		if gap.Blocks == 0 || gap.Proved == 0 {
			t.Fatalf("%s: no gap data recorded: %+v", c.name, gap)
		}
		if c.ecfg == tight && gap.Bounded == 0 {
			t.Fatalf("%s: tight budgets forced no Bounded fallback: %+v", c.name, gap)
		}
		res2 := formAndCompact(t, c.prog, c.cfg, Options{Exact: c.ecfg, GapStats: &again})
		if ir.Fingerprint(res2.Prog) != ir.Fingerprint(res.Prog) {
			t.Fatalf("%s: repeated exact compile diverges", c.name)
		}
		if again != gap {
			t.Fatalf("%s: repeated gap stats diverge: %+v vs %+v", c.name, again, gap)
		}
	}
}

// Exact mode composes with the whole-program path: a compacted program
// under exact scheduling must never have a larger total span than the
// list-scheduled build of the same formation.
func TestExactNeverWorseThanList(t *testing.T) {
	prog := hotTrace(800)
	listRes := compile(t, prog, core.PathBased, Options{}, nil)
	var gap GapStats
	exactRes := compile(t, prog, core.PathBased, Options{Exact: ExactConfig{Enabled: true}, GapStats: &gap}, nil)
	listRun, err := interp.Run(listRes.Prog, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	exactRun, err := interp.Run(exactRes.Prog, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mustMatch(t, listRun, exactRun, "list-vs-exact")
	if exactRun.Cycles > listRun.Cycles {
		t.Fatalf("exact schedules cost %d cycles, list schedules %d", exactRun.Cycles, listRun.Cycles)
	}
	if gap.Blocks != gap.Proved+gap.Bounded {
		t.Fatalf("gap partition broken: %+v", gap)
	}
}
