package regalloc

import (
	"errors"
	"testing"
	"testing/quick"

	"pathsched/internal/ir"
)

// mkBlock builds a block from instructions for allocation tests.
func mkBlock(instrs ...ir.Instr) *ir.Block {
	return &ir.Block{Instrs: instrs}
}

func v(n int32) ir.Reg { return ir.VirtBase + ir.Reg(n) }

// assign runs the allocator on a fresh scratch.
func assign(b *ir.Block, pool Pool) error {
	var s Scratch
	return s.AssignVirtuals(b, pool)
}

func TestFreePoolExcludesUsedRegisters(t *testing.T) {
	bd := ir.NewBuilder("p", 8)
	pb := bd.Proc("main")
	b := pb.NewBlock()
	b.Add(ir.Add(3, 1, 2), ir.Store(4, 0, 3))
	b.Ret(0)
	prog := bd.Finish()
	pool := FreePool(prog.Proc(0))
	for _, used := range []ir.Reg{0, 1, 2, 3, 4} {
		if pool.Has(used) {
			t.Errorf("r%d is used but appears in the free pool", used)
		}
	}
	for _, free := range []ir.Reg{5, 63, 64, 127} {
		if !pool.Has(free) {
			t.Errorf("r%d is unused but missing from the free pool", free)
		}
	}
	if pool.Len() != ir.PhysRegs-5 {
		t.Fatalf("pool size = %d, want %d", pool.Len(), ir.PhysRegs-5)
	}
}

// The free set hands out registers smallest-first across both words,
// exactly like a sorted free list.
func TestPoolTakesSmallestFirst(t *testing.T) {
	p := PoolOf(127, 64, 63, 5)
	for _, want := range []ir.Reg{5, 63, 64, 127, -1} {
		if got := p.take(); got != want {
			t.Fatalf("take = %v, want %v", got, want)
		}
	}
	if p.Len() != 0 || p.Has(5) || PoolOf(3).Has(ir.VirtBase+3) {
		t.Fatal("pool membership wrong after draining")
	}
}

func TestAssignSimpleChain(t *testing.T) {
	b := mkBlock(
		ir.MovI(v(0), 10),
		ir.AddI(v(1), v(0), 5),
		ir.Mov(2, v(1)),
		ir.Ret(2),
	)
	if err := assign(b, PoolOf(50, 51)); err != nil {
		t.Fatal(err)
	}
	if b.Instrs[0].Dst != 50 {
		t.Fatalf("first virtual got %v, want r50", b.Instrs[0].Dst)
	}
	if b.Instrs[1].Src1 != 50 {
		t.Fatalf("use not rewritten: %v", b.Instrs[1])
	}
	// v0 dies at instr 1, so v1 may reuse r50... but expiry happens at
	// the *next* position; either r50 or r51 is acceptable as long as
	// uses match defs.
	if b.Instrs[2].Src1 != b.Instrs[1].Dst {
		t.Fatalf("chained use mismatch: %v vs %v", b.Instrs[2], b.Instrs[1])
	}
}

func TestAssignReusesExpiredRegisters(t *testing.T) {
	// Two non-overlapping virtual live ranges must fit in one register.
	b := mkBlock(
		ir.MovI(v(0), 1),
		ir.Mov(2, v(0)), // v0 dies here
		ir.MovI(v(1), 2),
		ir.Mov(3, v(1)),
		ir.Ret(3),
	)
	if err := assign(b, PoolOf(60)); err != nil {
		t.Fatalf("single register should suffice: %v", err)
	}
	if b.Instrs[0].Dst != 60 || b.Instrs[2].Dst != 60 {
		t.Fatal("expired register not reused")
	}
}

func TestAssignFailsUnderPressure(t *testing.T) {
	// Three simultaneously live virtuals, pool of two.
	b := mkBlock(
		ir.MovI(v(0), 1),
		ir.MovI(v(1), 2),
		ir.MovI(v(2), 3),
		ir.Add(4, v(0), v(1)),
		ir.Add(4, 4, v(2)),
		ir.Ret(4),
	)
	err := assign(b, PoolOf(60, 61))
	if !errors.Is(err, ErrOutOfRegisters) {
		t.Fatalf("pool 2 and pressure 3: got %v, want ErrOutOfRegisters", err)
	}
	if want := "regalloc: out of registers at instruction 2 (pool 2)"; err.Error() != want {
		t.Fatalf("error text %q, want %q", err, want)
	}
}

func TestAssignRejectsDoubleDef(t *testing.T) {
	b := mkBlock(
		ir.MovI(v(0), 1),
		ir.MovI(v(0), 2),
		ir.Ret(0),
	)
	err := assign(b, PoolOf(60, 61))
	if err == nil {
		t.Fatal("virtuals are single-assignment; double def must error")
	}
	if errors.Is(err, ErrOutOfRegisters) {
		t.Fatalf("double def reported as register pressure: %v", err)
	}
}

func TestAssignDeadDefReleasedImmediately(t *testing.T) {
	// A dead virtual def (never used) must not hold a register.
	b := mkBlock(
		ir.MovI(v(0), 1), // dead
		ir.MovI(v(1), 2),
		ir.Mov(2, v(1)),
		ir.Ret(2),
	)
	if err := assign(b, PoolOf(60, 61)); err != nil {
		t.Fatal(err)
	}
}

func TestAssignHandlesCallArgs(t *testing.T) {
	b := mkBlock(
		ir.MovI(v(0), 1),
		ir.MovI(v(1), 2),
		ir.Call(3, 0, ir.NoBlock, v(0), v(1)),
		ir.Ret(3),
	)
	if err := assign(b, PoolOf(60, 61)); err != nil {
		t.Fatal(err)
	}
	for _, a := range b.Instrs[2].Args {
		if a.IsVirtual() {
			t.Fatalf("call arg not rewritten: %v", b.Instrs[2])
		}
	}
}

// Property: for random straight-line blocks with bounded pressure,
// allocation succeeds, leaves no virtuals, and preserves the dataflow
// (each use reads the physical register its def was mapped to).
func TestAssignPropertyDataflowPreserved(t *testing.T) {
	check := func(seed uint8, nInstr uint8) bool {
		n := int(nInstr%40) + 5
		rngState := uint64(seed) + 1
		rnd := func(m int) int {
			rngState = rngState*6364136223846793005 + 1442695040888963407
			return int((rngState >> 33) % uint64(m))
		}
		var instrs []ir.Instr
		var liveVirts []ir.Reg
		next := int32(0)
		defUse := map[ir.Reg][]int{} // virtual -> instr indices using it
		defAt := map[ir.Reg]int{}
		for i := 0; i < n; i++ {
			if len(liveVirts) > 0 && rnd(3) == 0 {
				// Use one or two live virtuals.
				a := liveVirts[rnd(len(liveVirts))]
				bv := liveVirts[rnd(len(liveVirts))]
				nv := v(next)
				next++
				instrs = append(instrs, ir.Add(nv, a, bv))
				defUse[a] = append(defUse[a], len(instrs)-1)
				defUse[bv] = append(defUse[bv], len(instrs)-1)
				defAt[nv] = len(instrs) - 1
				liveVirts = append(liveVirts, nv)
			} else {
				nv := v(next)
				next++
				instrs = append(instrs, ir.MovI(nv, int64(i)))
				defAt[nv] = len(instrs) - 1
				liveVirts = append(liveVirts, nv)
			}
			// Randomly retire some virtuals so pressure stays bounded.
			if len(liveVirts) > 6 {
				liveVirts = liveVirts[len(liveVirts)-6:]
			}
		}
		instrs = append(instrs, ir.Ret(0))
		b := mkBlock(instrs...)

		// Remember the def-use structure by instruction index.
		var pool Pool
		for r := ir.Reg(64); r < 96; r++ {
			pool.add(r)
		}
		if err := assign(b, pool); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		// No virtuals remain.
		var buf []ir.Reg
		for i := range b.Instrs {
			ins := &b.Instrs[i]
			if ins.Dst.IsVirtual() {
				return false
			}
			buf = ins.Uses(buf[:0])
			for _, u := range buf {
				if u.IsVirtual() {
					return false
				}
			}
		}
		// Dataflow: each recorded use must read exactly the register
		// its def now writes (no intervening redefinition, since every
		// def wrote a distinct virtual and linear scan must not alias
		// overlapping ranges).
		for virt, uses := range defUse {
			d := defAt[virt]
			phys := b.Instrs[d].Dst
			for _, u := range uses {
				found := false
				buf = b.Instrs[u].Uses(buf[:0])
				for _, r := range buf {
					if r == phys {
						found = true
					}
				}
				if !found {
					t.Logf("seed %d: use at %d lost its def's register", seed, u)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
