package sched

import (
	"pathsched/internal/ir"
	"pathsched/internal/regalloc"
)

// scratch owns every buffer the compaction hot path reuses across
// superblocks, so compiling a procedure allocates almost nothing per
// superblock: the dependence tables, the DDG, the scheduler's ready
// structure, the rename/VN/DCE working state, and the merge arenas all
// live here. Each Compact call owns one scratch for all of its
// superblocks, and no memory reachable from a scratch may outlive the
// superblock it was used for unless the code explicitly copies it out
// (install and the dependence recorder do).
//
// Ownership rules (DESIGN.md §12):
//
//   - mergeSuperblock writes s.merged and bulk target/arg arenas; the
//     arenas escape into the installed program and are therefore
//     allocated fresh per merge, but the node slice is reused.
//   - rename writes s.renamed (it can grow the node list with repair
//     copies, so it cannot run in place); valueNumber and
//     eliminateDeadDefs filter their input in place.
//   - regalloc rewrites the installed head block in place; its window
//     tables and expiry sets live in s.ra and never escape.
//   - buildDDG/listSchedule/scheduleNodes use the remaining buffers;
//     the only per-superblock allocations left are the slices that
//     escape into the program (head.Instrs, Cycles, ExitUnits, Units)
//     and, when recording is on, the recorded dependence edges.
type scratch struct {
	dep depScratch

	merged   []node
	renamed  []node
	outNodes []node

	// rename state, dense over the architected file (rename only ever
	// keys by architectural registers; -1 means "no entry").
	cur      [ir.PhysRegs]ir.Reg
	repaired [ir.PhysRegs]ir.Reg

	// value-numbering tables, reused via clear().
	vnTable   map[vnKey]ir.Reg
	vnReplace map[ir.Reg]ir.Reg

	// DCE liveness bitset over the dense register window, plus a uses
	// buffer shared by DCE's scans.
	dceUsed []uint64
	usesBuf []ir.Reg

	// DDG assembly.
	items    []DepItem
	g        ddg
	flatSucc []edge

	// listSchedule state.
	earliest []int32
	npreds   []int32
	hcnt     []int32
	perm     []int32
	rankOf   []int32
	ready    []uint64
	cycles   []int32

	// linearization state.
	ccnt     []int32
	order    []int32
	finalPos []int32
	exits    []int32

	// register allocation tables (regalloc.Scratch).
	ra regalloc.Scratch

	// exact-search state (exact.go). exBest holds the incumbent
	// schedule and survives the listSchedule call that seeds it; the
	// memo map is reused via clear() like the VN tables.
	exBest  []int32
	exCyc   []int32
	exEst   []int32
	exNpred []int32
	exUndo  []estUndo
	exMemo  map[exactKey]int32
}

func newScratch() *scratch {
	return &scratch{
		vnTable:   map[vnKey]ir.Reg{},
		vnReplace: map[ir.Reg]ir.Reg{},
	}
}

// i32buf returns a length-n slice reusing buf's capacity. Contents are
// undefined; callers overwrite every element.
func i32buf(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// i32zero is i32buf with every element reset to zero.
func i32zero(buf *[]int32, n int) []int32 {
	s := i32buf(buf, n)
	for i := range s {
		s[i] = 0
	}
	return s
}

// i32fill is i32buf with every element reset to v.
func i32fill(buf *[]int32, n int, v int32) []int32 {
	s := i32buf(buf, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// u64zero returns a zeroed length-n uint64 slice reusing buf.
func u64zero(buf *[]uint64, n int) []uint64 {
	if cap(*buf) < n {
		*buf = make([]uint64, n)
	}
	s := (*buf)[:n]
	*buf = s
	for i := range s {
		s[i] = 0
	}
	return s
}
