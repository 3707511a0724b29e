package sched

import (
	"testing"

	"pathsched/internal/core"
	"pathsched/internal/interp"
	"pathsched/internal/ir"
	"pathsched/internal/machine"
	"pathsched/internal/profile"
)

// Schedule-quality lower bounds: every compacted block's span must be
// at least (a) ceil(instructions / functional units), (b) the number
// of control operations (one per cycle), and (c) 1. These hold for any
// legal schedule, so violations indicate accounting bugs rather than
// miraculous compaction.
func TestScheduleLowerBounds(t *testing.T) {
	mc := machine.Default()
	for seed := int64(1); seed <= 8; seed++ {
		prog := randProg(seed)
		res := compile(t, prog, core.PathBased, Options{}, nil)
		for _, p := range res.Prog.Procs {
			for _, b := range p.Blocks {
				if b.Cycles == nil {
					continue
				}
				n := len(b.Instrs)
				branches := 0
				for i := range b.Instrs {
					if b.Instrs[i].Op.IsBranch() {
						branches++
					}
				}
				min := (n + mc.FuncUnits - 1) / mc.FuncUnits
				if branches > min {
					min = branches
				}
				if min < 1 {
					min = 1
				}
				if int(b.Span) < min {
					t.Fatalf("seed %d %s/b%d: span %d below lower bound %d (%d instrs, %d branches)",
						seed, p.Name, b.ID, b.Span, min, n, branches)
				}
			}
		}
	}
}

// Exits must appear in program order within the merged block, and
// their ExitUnits must be non-decreasing (a later exit leaves a later
// position in the trace).
func TestExitOrderAndUnitsMonotone(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		prog := randProg(seed)
		res := compile(t, prog, core.EdgeBased, Options{}, nil)
		for _, p := range res.Prog.Procs {
			for _, b := range p.Blocks {
				if b.ExitUnits == nil {
					continue
				}
				last := int32(0)
				for i := range b.Instrs {
					u := b.ExitUnits[i]
					if u == 0 {
						continue
					}
					if u < last {
						t.Fatalf("seed %d %s/b%d: exit units regress at %d (%d after %d)",
							seed, p.Name, b.ID, i, u, last)
					}
					last = u
					if u > b.SBSize {
						t.Fatalf("seed %d %s/b%d: exit unit %d beyond size %d",
							seed, p.Name, b.ID, u, b.SBSize)
					}
				}
			}
		}
	}
}

// The Figure 7 accounting invariant: blocks-executed per entry can
// never exceed the superblock size, and cycle counts with a trivial
// (always-hit) cache equal the no-cache counts.
func TestMeasurementInvariants(t *testing.T) {
	prog := hotTrace(300)
	res := compile(t, prog, core.PathBased, Options{}, nil)
	r, err := interp.Run(res.Prog, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r.SBExecuted > r.SBSize {
		t.Fatalf("executed %d blocks over total size %d", r.SBExecuted, r.SBSize)
	}
	huge := machine.NewICache(machine.ICacheConfig{SizeBytes: 1 << 30, LineBytes: 32, Penalty: 6})
	huge.FetchRange(0, 1<<25) // pre-warm everything the program spans
	r2, err := interp.Run(res.Prog, interp.Config{Fetch: huge})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Cycles-r2.FetchStall != r.Cycles {
		t.Fatalf("cache-adjusted ideal %d != ideal %d", r2.Cycles-r2.FetchStall, r.Cycles)
	}
}

// Compaction must leave no unreachable blocks and keep block ids dense.
func TestCompactionCleansDeadBlocks(t *testing.T) {
	prog := hotTrace(200)
	res := compile(t, prog, core.PathBased, Options{}, nil)
	for _, p := range res.Prog.Procs {
		g := ir.NewCFG(p)
		for _, b := range p.Blocks {
			if !g.Reachable(b.ID) {
				t.Fatalf("%s/b%d unreachable after compaction", p.Name, b.ID)
			}
		}
	}
}

// A compile with every optimization disabled must still be correct.
func TestCompactionAllAblationsStillCorrect(t *testing.T) {
	prog := randProg(3)
	orig, err := interp.Run(prog, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{DisableRenaming: true, DisableDCE: true, DisableVN: true}
	res := compile(t, prog, core.PathBased, opts, nil)
	got, err := interp.Run(res.Prog, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mustMatch(t, orig, got, "fully ablated")
}

// Profiles gathered on one run drive formation of a *different* build
// of the same CFG (the pipeline's profile-transfer property); spot
// check it at the sched level too.
func TestProfileTransferAcrossBuilds(t *testing.T) {
	train := hotTrace(100)
	test := hotTrace(700)
	tp, err := profile.Train(train, profile.PathConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Method = core.PathBased
	cfg.Edge, cfg.Path = tp.Edge, tp.Path
	cfg.MinExecFreq = 2
	formed, err := core.Form(test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Compact(formed, Options{}); err != nil {
		t.Fatal(err)
	}
	orig, _ := interp.Run(hotTrace(700), interp.Config{})
	got, err := interp.Run(formed.Prog, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mustMatch(t, orig, got, "profile transfer")
	if got.Cycles >= orig.Cycles {
		t.Fatalf("transferred-profile compile did not help: %d vs %d", got.Cycles, orig.Cycles)
	}
}
