package core

import (
	"slices"
	"strings"
	"testing"

	"pathsched/internal/bench"
	"pathsched/internal/ir"
	"pathsched/internal/ir/irtest"
)

// predsOracle is buildPreds as it was before it returned a slice: a
// map from block id to its predecessors in block order.
func predsOracle(p *ir.Proc) map[ir.BlockID][]ir.BlockID {
	preds := map[ir.BlockID][]ir.BlockID{}
	for _, b := range p.Blocks {
		for _, s := range b.Succs() {
			preds[s] = append(preds[s], b.ID)
		}
	}
	return preds
}

func checkPreds(t *testing.T, what string, p *ir.Proc) {
	t.Helper()
	got, want := buildPreds(p), predsOracle(p)
	for id := ir.BlockID(0); int(id) < len(p.Blocks)+3; id++ {
		if !slices.Equal(predsOf(got, id), want[id]) {
			t.Fatalf("%s/%s b%d: preds %v, oracle %v", what, p.Name, id, predsOf(got, id), want[id])
		}
	}
}

// TestBuildPredsMatchesOracle: random CFGs, random structured programs
// before and after each formation method (tail-duplicated and enlarged
// copies included), and every suite build.
func TestBuildPredsMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		for _, p := range irtest.RandCFGProg(seed, int(seed%30)+2).Procs {
			checkPreds(t, "random", p)
		}
	}
	for seed := int64(1); seed <= 10; seed++ {
		prog := randStructuredProg(seed)
		for _, p := range prog.Procs {
			checkPreds(t, "structured", p)
		}
		for _, method := range []Method{EdgeBased, PathBased} {
			for _, p := range form(t, prog, method, nil).Prog.Procs {
				checkPreds(t, "formed", p)
			}
		}
	}
	for _, name := range bench.Names() {
		b := bench.ByName(name)
		for _, p := range b.Build(b.Test).Procs {
			checkPreds(t, name, p)
		}
	}
}

// TestCheckInvariantsRejectsBrokenPartitions: a superblock naming a
// block that does not exist, a block in two superblocks, and an entry
// that heads no superblock are each reported, not a panic.
func TestCheckInvariantsRejectsBrokenPartitions(t *testing.T) {
	res := form(t, randStructuredProg(3), EdgeBased, nil)
	main := res.Prog.ProcByName("main").ID
	for _, tc := range []struct {
		name, want string
		mutate     func(sbs []*Superblock)
	}{
		{"nonexistent block", "does not exist", func(sbs []*Superblock) { sbs[0].Blocks = append(sbs[0].Blocks, 999) }},
		{"block twice", "in two superblocks", func(sbs []*Superblock) { sbs[1].Blocks = append(sbs[1].Blocks, sbs[0].Blocks[0]) }},
		{"entry not a head", "entry must head", func(sbs []*Superblock) {
			for _, sb := range sbs {
				if sb.Blocks[0] == 0 {
					sb.Blocks = sb.Blocks[1:]
				}
			}
		}},
	} {
		r := form(t, randStructuredProg(3), EdgeBased, nil)
		tc.mutate(r.Superblocks[main])
		if err := CheckInvariants(r); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckInvariants = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
	if err := CheckInvariants(res); err != nil {
		t.Fatal(err)
	}
}
