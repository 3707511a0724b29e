// Package regalloc maps the virtual registers that renaming introduces
// back onto the 128-register architected file, mirroring the paper's
// preschedule (infinite registers) → allocate → postschedule flow
// (§2.3). Virtual registers are single-assignment and never live
// across block boundaries, so a linear scan over the scheduled linear
// order suffices.
//
// The scan is O(1) per definition and map-free (DESIGN.md §12, item
// 6). The free set is a Pool bitset computed once per procedure, and a
// definition takes its lowest set bit: the smallest-numbered free
// register, the same deterministic choice a sorted free list makes.
// Interval ends and assignments live in flat tables over the block's
// virtual window [minVirt, maxVirt], and each interval's register goes
// onto the expiry set of the position just past its last use, so
// releasing is one OR per instruction instead of a rescan of the live
// intervals. The tables live in a Scratch that a compaction worker
// reuses across blocks, so steady-state allocation is zero.
//
// Only ErrOutOfRegisters is recoverable: the caller compacts the
// superblock again without renaming. Every other error means the block
// broke renaming's contract (a virtual defined twice, or read without
// a definition) and must surface.
package regalloc

import (
	"errors"
	"fmt"
	"math/bits"

	"pathsched/internal/ir"
)

// ErrOutOfRegisters reports that live virtual pressure exceeded the
// pool at some instruction. Allocation errors wrap it when, and only
// when, pressure caused them.
var ErrOutOfRegisters = errors.New("regalloc: out of registers")

// Pool is a set of physical registers, one bit per architected
// register (ir.PhysRegs is 128: two words).
type Pool [2]uint64

// PoolOf returns the pool holding exactly the given physical registers.
func PoolOf(regs ...ir.Reg) Pool {
	var p Pool
	for _, r := range regs {
		p.add(r)
	}
	return p
}

func (p *Pool) add(r ir.Reg) { p[r>>6] |= 1 << (uint(r) & 63) }

// Has reports whether r is in the pool. Virtual registers never are.
func (p Pool) Has(r ir.Reg) bool {
	return r >= 0 && r < ir.VirtBase && p[r>>6]&(1<<(uint(r)&63)) != 0
}

// Len returns the number of registers in the pool.
func (p Pool) Len() int { return bits.OnesCount64(p[0]) + bits.OnesCount64(p[1]) }

// take removes and returns the smallest-numbered register, or -1 when
// the pool is empty.
func (p *Pool) take() ir.Reg {
	for w := range p {
		if p[w] != 0 {
			r := ir.Reg(w<<6 + bits.TrailingZeros64(p[w]))
			p[w] &= p[w] - 1
			return r
		}
	}
	return -1
}

// FreePool returns the physical registers that appear nowhere in the
// procedure's architectural (pre-renaming) code: those are safe homes
// for block-local virtuals. The pool is shared by all blocks of the
// procedure — virtuals never outlive their block, so reuse across
// blocks is free.
func FreePool(p *ir.Proc) Pool {
	var used Pool
	mark := func(r ir.Reg) {
		if r >= 0 && r < ir.VirtBase {
			used.add(r)
		}
	}
	for _, b := range p.Blocks {
		for i := range b.Instrs {
			ins := &b.Instrs[i]
			mark(ins.Dst)
			mark(ins.Src1)
			mark(ins.Src2)
			for _, a := range ins.Args {
				mark(a)
			}
		}
	}
	return Pool{^used[0], ^used[1]}
}

// Scratch holds the allocator's per-block tables. The zero value is
// ready to use; one Scratch serves one goroutine at a time, and nothing
// in it outlives the AssignVirtuals call that filled it.
type Scratch struct {
	lastUse []int32  // window slot -> last position reading the virtual, -1 if none
	assign  []ir.Reg // window slot -> physical register, -1 until defined
	expire  []Pool   // position -> registers whose intervals end just before it
	uses    []ir.Reg // Instr.Uses buffer
}

// AssignVirtuals rewrites every virtual register in b onto registers
// from pool using linear-scan allocation over the block's instruction
// order: at each instruction the uses (Src1, Src2, Args) are rewritten,
// then a virtual definition takes the smallest free register. It fails
// with ErrOutOfRegisters when live virtual pressure exceeds the pool,
// and with a plain error when a virtual is defined twice or any
// virtual is left unresolved.
func (s *Scratch) AssignVirtuals(b *ir.Block, pool Pool) error {
	minVirt, maxVirt := virtualWindow(b.Instrs)
	if maxVirt < minVirt {
		return nil // nothing virtual to allocate or to leave behind
	}
	width := int(maxVirt-minVirt) + 1
	lastUse := fill(&s.lastUse, width, -1)
	assign := fill(&s.assign, width, -1)
	expire := fill(&s.expire, len(b.Instrs), Pool{})

	// Interval ends: last position reading each virtual.
	buf := s.uses
	for i := range b.Instrs {
		buf = b.Instrs[i].Uses(buf[:0])
		for _, u := range buf {
			if u.IsVirtual() {
				lastUse[u-minVirt] = int32(i)
			}
		}
	}
	s.uses = buf

	rewrite := func(r *ir.Reg) {
		if r.IsVirtual() {
			if phys := assign[*r-minVirt]; phys >= 0 {
				*r = phys
			}
		}
	}
	free := pool
	for i := range b.Instrs {
		free[0] |= expire[i][0]
		free[1] |= expire[i][1]
		ins := &b.Instrs[i]
		// Uses first (they read values defined earlier).
		rewrite(&ins.Src1)
		rewrite(&ins.Src2)
		for ai := range ins.Args {
			rewrite(&ins.Args[ai])
		}
		// Then the def.
		if ins.HasDst() && ins.Dst.IsVirtual() {
			slot := ins.Dst - minVirt
			if assign[slot] >= 0 {
				return fmt.Errorf("regalloc: virtual %v defined twice", ins.Dst)
			}
			phys := free.take()
			if phys < 0 {
				return fmt.Errorf("%w at instruction %d (pool %d)", ErrOutOfRegisters, i, pool.Len())
			}
			assign[slot] = phys
			// A dead def (or one read only before it) frees its register
			// at the next instruction.
			end := max(int(lastUse[slot]), i)
			if end+1 < len(expire) {
				expire[end+1].add(phys)
			}
			ins.Dst = phys
		}
	}

	// Nothing virtual may survive.
	for i := range b.Instrs {
		ins := &b.Instrs[i]
		if ins.Dst.IsVirtual() || ins.Src1.IsVirtual() || ins.Src2.IsVirtual() {
			return fmt.Errorf("regalloc: unresolved virtual in %v", *ins)
		}
		for _, a := range ins.Args {
			if a.IsVirtual() {
				return fmt.Errorf("regalloc: unresolved virtual arg in %v", *ins)
			}
		}
	}
	return nil
}

// virtualWindow returns the smallest and largest virtual register any
// operand field of instrs names, or (0, -1) when there is none.
// Renaming draws a superblock's virtuals from one contiguous counter
// run, so the window is about as wide as the block is long.
func virtualWindow(instrs []ir.Instr) (minVirt, maxVirt ir.Reg) {
	minVirt, maxVirt = 0, -1
	see := func(r ir.Reg) {
		if !r.IsVirtual() {
			return
		}
		if maxVirt < minVirt {
			minVirt, maxVirt = r, r
			return
		}
		minVirt, maxVirt = min(minVirt, r), max(maxVirt, r)
	}
	for i := range instrs {
		ins := &instrs[i]
		see(ins.Dst)
		see(ins.Src1)
		see(ins.Src2)
		for _, a := range ins.Args {
			see(a)
		}
	}
	return minVirt, maxVirt
}

// fill returns a length-n slice reusing buf's capacity, every element
// set to v.
func fill[T any](buf *[]T, n int, v T) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	s := (*buf)[:n]
	*buf = s
	for i := range s {
		s[i] = v
	}
	return s
}
