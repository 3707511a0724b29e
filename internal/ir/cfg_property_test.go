package ir_test

import (
	"testing"
	"testing/quick"

	. "pathsched/internal/ir"
	"pathsched/internal/ir/irtest"
)

// The random-program generator lives in irtest so that regalloc's
// def-before-use property test and the checker fuzzer share it; this
// file keeps the CFG-analysis properties it was written for.

// Property: the immediate dominator of every reachable non-entry block
// strictly dominates it, and domination is consistent with reachability
// (removing a dominator disconnects the block).
func TestDominatorProperties(t *testing.T) {
	check := func(seed int64, sz uint8) bool {
		n := int(sz%12) + 3
		prog := irtest.RandCFGProg(seed, n)
		p := prog.Proc(0)
		g := NewCFG(p)
		entry := p.Entry().ID
		for _, b := range p.Blocks {
			if !g.Reachable(b.ID) || b.ID == entry {
				continue
			}
			id := g.IDom(b.ID)
			if id == NoBlock {
				return false
			}
			if !g.Dominates(id, b.ID) || id == b.ID {
				return false
			}
			// Entry dominates everything reachable.
			if !g.Dominates(entry, b.ID) {
				return false
			}
			// Check against a brute-force reachability-based oracle:
			// id dominates b iff b is unreachable when id is removed.
			if reachableWithout(g, p, entry, b.ID, id) {
				t.Logf("seed %d: b%d reachable without its idom b%d", seed, b.ID, id)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// reachableWithout reports whether target is reachable from entry while
// never passing through banned.
func reachableWithout(g *CFG, p *Proc, entry, target, banned BlockID) bool {
	if entry == banned {
		return false
	}
	seen := map[BlockID]bool{entry: true}
	stack := []BlockID{entry}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if b == target {
			return true
		}
		for _, s := range g.Succs(b) {
			if s != banned && !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}

// Property: text round-trip is the identity on random CFG programs.
func TestTextRoundTripProperty(t *testing.T) {
	check := func(seed int64, sz uint8) bool {
		prog := irtest.RandCFGProg(seed, int(sz%10)+3)
		text := WriteText(prog)
		back, err := ParseText(text)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return WriteText(back) == text
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
