package ir_test

import (
	"math/rand"
	"slices"
	"testing"

	"pathsched/internal/bench"
	. "pathsched/internal/ir"
	"pathsched/internal/ir/irtest"
)

// succsOracle is Block.Succs as it was before it deduplicated in
// place: a map of the targets seen, first occurrences kept in order.
func succsOracle(b *Block) []BlockID {
	var out []BlockID
	seen := map[BlockID]bool{}
	for i := range b.Instrs {
		for _, t := range b.Instrs[i].Targets {
			if t == NoBlock || seen[t] {
				continue
			}
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

func checkSuccs(t *testing.T, what string, p *Proc) {
	t.Helper()
	for _, b := range p.Blocks {
		if got, want := b.Succs(), succsOracle(b); !slices.Equal(got, want) {
			t.Fatalf("%s/%s b%d: Succs %v, oracle %v", what, p.Name, b.ID, got, want)
		}
	}
}

// TestSuccsMatchesOracleOnRandomTargets drives both the scan and the
// bitset path: target lists up to a few hundred long over id ranges
// from a handful (many repeats) to past the bitset's reach, with NoBlock
// slots and stray negative ids mixed in.
func TestSuccsMatchesOracleOnRandomTargets(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 3000; iter++ {
		span := []int{3, 40, 200, 5000, 1 << 17}[rng.Intn(5)]
		b := &Block{}
		for n := rng.Intn(6) + 1; n > 0; n-- {
			var ins Instr
			for k := rng.Intn(120); k > 0; k-- {
				ins.Targets = append(ins.Targets, BlockID(rng.Intn(span+3)-3))
			}
			b.Instrs = append(b.Instrs, ins)
		}
		if got, want := b.Succs(), succsOracle(b); !slices.Equal(got, want) {
			t.Fatalf("iteration %d: Succs %v, oracle %v", iter, got, want)
		}
	}
}

// TestSuccsMatchesOracleOnPrograms: random CFGs and every suite
// build, training and testing input.
func TestSuccsMatchesOracleOnPrograms(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		for _, p := range irtest.RandCFGProg(seed, int(seed%40)+2).Procs {
			checkSuccs(t, "random", p)
		}
	}
	for _, name := range bench.Names() {
		b := bench.ByName(name)
		for _, in := range []bench.Input{b.Train, b.Test} {
			for _, p := range b.Build(in).Procs {
				checkSuccs(t, name, p)
			}
		}
	}
}
