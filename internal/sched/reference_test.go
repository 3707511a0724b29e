package sched

import (
	"fmt"
	"sort"

	"pathsched/internal/core"
	"pathsched/internal/ir"
	"pathsched/internal/machine"
)

// This file preserves the seed compaction path — map-based dependence
// tables, per-cycle ready-list re-sorts, per-instruction clones, a
// register allocator that sorts its free list at every definition,
// fresh allocations throughout — as a test-only oracle: differential tests
// pin the optimized path byte-identical to it, and the *Reference
// microbenchmarks time it as the before-optimization baseline. Do not
// optimize this file.

// refCompact is the seed Compact: serial, one procedure at a time, with
// no dependence recording and no exact backend.
func refCompact(res *core.Result, opts Options) error {
	opts = opts.withDefaults()
	for _, p := range res.Prog.Procs {
		live := LiveIn(p)
		pool := refFreePool(p)
		sbs := res.Superblocks[p.ID]
		for _, sb := range sbs {
			if err := refCompactSuperblock(p, sb, live, pool, opts); err != nil {
				return fmt.Errorf("sched: %s sb%d: %w", p.Name, sb.ID, err)
			}
		}
		if err := removeDeadBlocks(p, sbs); err != nil {
			return fmt.Errorf("sched: %s: %w", p.Name, err)
		}
	}
	if err := ir.Verify(res.Prog); err != nil {
		return fmt.Errorf("sched: compaction produced invalid IR: %w", err)
	}
	return nil
}

// refDependences is the seed Dependences implementation.
func refDependences(items []DepItem, mc machine.Config) []DepEdge {
	n := len(items)
	heads := make([]int32, n)
	for i := range heads {
		heads[i] = -1
	}
	pool := make([]pooledEdge, 0, 8*n)
	nEdges := 0
	addEdge := func(from, to int, lat int32, kind DepKind) {
		if from == to || from > to {
			return
		}
		for j := heads[from]; j >= 0; j = pool[j].next {
			if pool[j].edge.To == to {
				if lat > pool[j].edge.Lat {
					pool[j].edge.Lat = lat
					pool[j].edge.Kind = kind
				}
				return
			}
		}
		pool = append(pool, pooledEdge{
			edge: DepEdge{From: from, To: to, Lat: lat, Kind: kind},
			next: heads[from],
		})
		heads[from] = int32(len(pool) - 1)
		nEdges++
	}

	lastDef := map[ir.Reg]int{}
	lastUses := map[ir.Reg][]int{}
	lastStore := -1
	var loadsSinceStore []int
	lastCall := -1
	lastEmit := -1
	lastExit := -1
	var usesBuf []ir.Reg

	for i := range items {
		it := &items[i]
		op := it.Ins.Op

		usesBuf = it.Ins.Uses(usesBuf[:0])
		if it.IsExit {
			it.LiveOut.ForEach(func(r ir.Reg) { usesBuf = append(usesBuf, r) })
		}
		for _, u := range usesBuf {
			if d, ok := lastDef[u]; ok {
				addEdge(d, i, mc.Latency(items[d].Ins.Op), DepRAW)
			}
			lastUses[u] = append(lastUses[u], i)
		}
		if it.Ins.HasDst() {
			r := it.Ins.Dst
			for _, u := range lastUses[r] {
				addEdge(u, i, 0, DepWAR)
			}
			if d, ok := lastDef[r]; ok {
				addEdge(d, i, 1, DepWAW)
			}
			lastDef[r] = i
			lastUses[r] = lastUses[r][:0]
		}

		isCall := op == ir.OpCall
		switch {
		case op == ir.OpLoad:
			if lastStore >= 0 {
				addEdge(lastStore, i, 1, DepMem)
			}
			if lastCall >= 0 {
				addEdge(lastCall, i, 1, DepMem)
			}
			loadsSinceStore = append(loadsSinceStore, i)
		case op == ir.OpStore || isCall:
			if lastStore >= 0 {
				addEdge(lastStore, i, 1, DepMem)
			}
			for _, l := range loadsSinceStore {
				addEdge(l, i, 0, DepMem)
			}
			if lastCall >= 0 {
				addEdge(lastCall, i, 1, DepMem)
			}
			lastStore = i
			loadsSinceStore = loadsSinceStore[:0]
			if isCall {
				lastCall = i
			}
		}
		if op == ir.OpEmit || isCall {
			if lastEmit >= 0 {
				addEdge(lastEmit, i, 1, DepOrder)
			}
			if lastCall >= 0 && lastCall != i {
				addEdge(lastCall, i, 1, DepOrder)
			}
			lastEmit = i
		}

		if it.IsExit {
			if lastExit >= 0 {
				addEdge(lastExit, i, 1, DepControl)
			}
			lastExit = i
		} else if !it.Ins.CanSpeculate() {
			if lastExit >= 0 {
				addEdge(lastExit, i, 0, DepControl)
			}
		}
	}

	nextExit := -1
	for i := n - 1; i >= 0; i-- {
		if items[i].IsExit {
			nextExit = i
			continue
		}
		if !items[i].Ins.CanSpeculate() && nextExit >= 0 {
			addEdge(i, nextExit, 0, DepControl)
		}
	}
	final := n - 1
	for i := 0; i < final; i++ {
		addEdge(i, final, 0, DepControl)
	}

	out := make([]DepEdge, 0, nEdges)
	for _, h := range heads {
		start := len(out)
		for j := h; j >= 0; j = pool[j].next {
			out = append(out, pool[j].edge)
		}
		for i, j := start, len(out)-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
	}
	return out
}

// refBuildDDG is the seed buildDDG: a fresh graph with per-node
// append-grown successor slices. It also returns the dependence edges
// so the recording path can map them to emitted positions.
func refBuildDDG(nodes []node, mc machine.Config) (*ddg, []DepEdge) {
	n := len(nodes)
	items := make([]DepItem, n)
	for i := range nodes {
		items[i] = DepItem{Ins: nodes[i].ins, IsExit: nodes[i].isExit, LiveOut: nodes[i].liveOut}
	}
	g := &ddg{
		succs:  make([][]edge, n),
		npreds: make([]int, n),
		height: make([]int32, n),
	}
	edges := refDependences(items, mc)
	for _, e := range edges {
		g.succs[e.From] = append(g.succs[e.From], edge{e.To, e.Lat})
		g.npreds[e.To]++
	}
	for i := n - 1; i >= 0; i-- {
		h := int32(0)
		for _, e := range g.succs[i] {
			if v := g.height[e.to] + e.lat; v > h {
				h = v
			}
		}
		g.height[i] = h
	}
	return g, edges
}

// refListSchedule is the seed list scheduler: it re-sorts the entire
// ready list by (height, program order) every cycle.
func refListSchedule(nodes []node, g *ddg, mc machine.Config) (cycles []int32, span int32, err error) {
	n := len(nodes)
	cycles = make([]int32, n)
	earliest := make([]int32, n)
	npreds := append([]int(nil), g.npreds...)

	var ready []int
	for i := 0; i < n; i++ {
		if npreds[i] == 0 {
			ready = append(ready, i)
		}
	}
	remaining := n
	clock := int32(0)
	for remaining > 0 {
		sort.Slice(ready, func(a, b int) bool {
			ia, ib := ready[a], ready[b]
			if ha, hb := g.height[ia], g.height[ib]; ha != hb {
				return ha > hb
			}
			return ia < ib
		})
		if len(ready) == 0 {
			return nil, 0, &CycleError{Block: ir.NoBlock, Remaining: remaining}
		}
		slots := mc.FuncUnits
		branches := mc.BranchPerCycle
		var rest []int
		for _, i := range ready {
			if slots == 0 || earliest[i] > clock {
				rest = append(rest, i)
				continue
			}
			isBranch := nodes[i].ins.Op.IsBranch()
			if isBranch && branches == 0 {
				rest = append(rest, i)
				continue
			}
			cycles[i] = clock
			remaining--
			slots--
			if isBranch {
				branches--
			}
			for _, e := range g.succs[i] {
				if t := clock + e.lat; t > earliest[e.to] {
					earliest[e.to] = t
				}
				npreds[e.to]--
				if npreds[e.to] == 0 {
					rest = append(rest, e.to)
				}
			}
		}
		ready = rest
		clock++
	}
	span = 0
	for i := 0; i < n; i++ {
		if cycles[i]+1 > span {
			span = cycles[i] + 1
		}
	}
	return cycles, span, nil
}

// refMergeSuperblock is the seed merge: it deep-clones every
// instruction individually.
func refMergeSuperblock(p *ir.Proc, sb *core.Superblock, liveIn []RegSet) ([]node, error) {
	var nodes []node
	for i, bid := range sb.Blocks {
		b := p.Block(bid)
		lastBlock := i == len(sb.Blocks)-1
		var next ir.BlockID = ir.NoBlock
		if !lastBlock {
			next = sb.Blocks[i+1]
		}
		for j := range b.Instrs {
			ins := b.Instrs[j].Clone()
			isTerm := j == len(b.Instrs)-1
			if !isTerm {
				if ins.Op.IsTerminator() {
					return nil, fmt.Errorf("sched: %s/b%d has terminator mid-block before merging", p.Name, bid)
				}
				nodes = append(nodes, node{ins: ins, unit: i})
				continue
			}
			if lastBlock {
				n := node{ins: ins, unit: i, isExit: true}
				for _, t := range ins.Targets {
					n.liveOut.Union(liveIn[t])
				}
				nodes = append(nodes, n)
				continue
			}
			if ins.Op == ir.OpRet {
				return nil, fmt.Errorf("sched: %s/b%d: ret cannot appear mid-superblock", p.Name, bid)
			}
			real := 0
			for k, t := range ins.Targets {
				if t == next {
					ins.Targets[k] = ir.NoBlock
				} else {
					real++
				}
			}
			if real == 0 {
				if ins.Op == ir.OpCall {
					nodes = append(nodes, node{ins: ins, unit: i})
					continue
				}
				continue
			}
			if ins.Op == ir.OpJmp || ins.Op == ir.OpCall {
				return nil, fmt.Errorf("sched: %s/b%d: %s to non-successor inside superblock", p.Name, bid, ins.Op)
			}
			if ins.Op == ir.OpBr {
				if ins.Targets[0] != ir.NoBlock && ins.Targets[1] != ir.NoBlock {
					return nil, fmt.Errorf("sched: %s/b%d: br has no internal successor", p.Name, bid)
				}
			}
			n := node{ins: ins, unit: i, isExit: true}
			for _, t := range ins.Targets {
				if t != ir.NoBlock {
					n.liveOut.Union(liveIn[t])
				}
			}
			nodes = append(nodes, n)
		}
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("sched: superblock %d merged to nothing", sb.ID)
	}
	last := &nodes[len(nodes)-1]
	if !last.ins.Op.IsTerminator() {
		return nil, fmt.Errorf("sched: superblock %d does not end in a terminator", sb.ID)
	}
	return nodes, nil
}

// refRename is the seed map-based renamer.
func refRename(p *ir.Proc, nodes []node) []node {
	cur := map[ir.Reg]ir.Reg{}
	repaired := map[ir.Reg]ir.Reg{}

	nameOf := func(r ir.Reg) ir.Reg {
		if v, ok := cur[r]; ok {
			return v
		}
		return r
	}

	out := make([]node, 0, len(nodes)+8)
	for i := range nodes {
		n := nodes[i]
		final := i == len(nodes)-1

		rewriteUses(&n.ins, nameOf)

		if n.isExit {
			var copies []node
			n.liveOut.ForEach(func(r ir.Reg) {
				want := nameOf(r)
				have, ok := repaired[r]
				if !ok {
					have = r
				}
				if want == have {
					return
				}
				copies = append(copies, node{ins: ir.Mov(r, want), unit: n.unit})
				repaired[r] = want
			})
			out = append(out, copies...)
		}

		if n.ins.Op == ir.OpMov && !final && n.ins.Src1.IsVirtual() {
			cur[n.ins.Dst] = n.ins.Src1
			continue
		}

		if n.ins.HasDst() && !final {
			v := p.NewVirtReg()
			cur[n.ins.Dst] = v
			n.ins.Dst = v
		} else if n.ins.HasDst() && final {
			delete(cur, n.ins.Dst)
			delete(repaired, n.ins.Dst)
		}
		out = append(out, n)
	}
	return out
}

// refValueNumber is the seed value-numbering pass with per-call maps.
func refValueNumber(nodes []node) []node {
	table := map[vnKey]ir.Reg{}
	replace := map[ir.Reg]ir.Reg{}
	canon := func(r ir.Reg) ir.Reg {
		if c, ok := replace[r]; ok {
			return c
		}
		return r
	}
	gen := 0
	out := make([]node, 0, len(nodes))
	for i := range nodes {
		n := nodes[i]
		rewriteUses(&n.ins, canon)

		if n.ins.IsMemWrite() || n.ins.Op == ir.OpCall {
			gen++
		}

		if vnCandidate(&n.ins) {
			k := vnKey{op: n.ins.Op, a: n.ins.Src1, b: n.ins.Src2, imm: n.ins.Imm}
			if isCommutative(n.ins.Op) && k.b < k.a {
				k.a, k.b = k.b, k.a
			}
			if n.ins.Op == ir.OpLoad {
				k.gen = gen
			}
			if prior, ok := table[k]; ok {
				replace[n.ins.Dst] = prior
				continue
			}
			table[k] = n.ins.Dst
		}
		out = append(out, n)
	}
	return out
}

// refEliminateDeadDefs is the seed DCE with a per-iteration map.
func refEliminateDeadDefs(nodes []node) []node {
	for {
		used := map[ir.Reg]bool{}
		var buf []ir.Reg
		for i := range nodes {
			buf = nodes[i].ins.Uses(buf[:0])
			for _, u := range buf {
				used[u] = true
			}
		}
		kept := nodes[:0]
		removed := false
		for i := range nodes {
			nd := nodes[i]
			dead := nd.ins.HasDst() && nd.ins.Dst.IsVirtual() && !used[nd.ins.Dst] &&
				nd.ins.CanSpeculate() && !nd.isExit
			if dead {
				removed = true
				continue
			}
			kept = append(kept, nd)
		}
		nodes = kept
		if !removed {
			return nodes
		}
	}
}

// refScheduleNodes is the seed scheduleNodes (sort.SliceStable
// linearization, fresh output slices).
func refScheduleNodes(p *ir.Proc, nodes []node, doRename bool, opts Options) ([]node, []int32, int32, error) {
	if doRename {
		nodes = refRename(p, nodes)
		if !opts.DisableVN {
			nodes = refValueNumber(nodes)
		}
	}
	if !opts.DisableDCE {
		nodes = refEliminateDeadDefs(nodes)
	}
	g, _ := refBuildDDG(nodes, opts.Machine)
	cycles, span, err := refListSchedule(nodes, g, opts.Machine)
	if err != nil {
		return nil, nil, 0, err
	}

	order := make([]int, len(nodes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return cycles[order[a]] < cycles[order[b]] })

	finalPos := make([]int, len(nodes))
	for pos, idx := range order {
		finalPos[idx] = pos
	}
	var exits []int
	for i := range nodes {
		if nodes[i].isExit {
			exits = append(exits, i)
		}
	}
	outNodes := make([]node, len(nodes))
	outCycles := make([]int32, len(nodes))
	for pos, idx := range order {
		nd := nodes[idx]
		if nd.ins.Op == ir.OpLoad {
			for _, e := range exits {
				if e < idx && finalPos[e] > pos {
					nd.ins.Spec = true
					break
				}
			}
		}
		outNodes[pos] = nd
		outCycles[pos] = cycles[idx]
	}
	return outNodes, outCycles, span, nil
}

// refCompactSuperblock is the seed compactSuperblock: it merges an
// independent fallback copy eagerly, allocates fresh working state
// throughout, and falls back to the unrenamed schedule on any
// allocator error (production falls back only on register pressure,
// the only error renamed superblocks can produce).
func refCompactSuperblock(p *ir.Proc, sb *core.Superblock, live []RegSet, pool []ir.Reg, opts Options) error {
	nodes, err := refMergeSuperblock(p, sb, live)
	if err != nil {
		return err
	}
	// An independent merged copy for the no-renaming fallback: rename
	// mutates instruction operands in place, and install overwrites the
	// head block the merge reads from.
	fallback, err := refMergeSuperblock(p, sb, live)
	if err != nil {
		return err
	}
	tryRename := !opts.DisableRenaming
	final, cycles, span, err := refScheduleNodes(p, nodes, tryRename, opts)
	if err != nil {
		return tagCycleError(err, p, sb)
	}
	head := p.Block(sb.Blocks[0])
	install(p, head, sb, final, cycles, span)
	if tryRename {
		if aerr := refAssignVirtuals(head, pool); aerr != nil {
			final, cycles, span, err = refScheduleNodes(p, fallback, false, opts)
			if err != nil {
				return tagCycleError(err, p, sb)
			}
			install(p, head, sb, final, cycles, span)
		}
	}
	sb.Blocks = sb.Blocks[:1]
	return nil
}

// refFreePool is the seed regalloc.FreePool: the pool as a sorted
// slice of the registers the procedure never names.
func refFreePool(p *ir.Proc) []ir.Reg {
	used := make([]bool, ir.PhysRegs)
	mark := func(r ir.Reg) {
		if r >= 0 && r < ir.VirtBase {
			used[r] = true
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
	var pool []ir.Reg
	for r := ir.Reg(0); r < ir.VirtBase; r++ {
		if !used[r] {
			pool = append(pool, r)
		}
	}
	return pool
}

// refAssignVirtuals is the seed regalloc.AssignVirtuals: maps for
// interval ends and assignments, a free list re-sorted at every
// definition, and an O(live) expiry rescan at every instruction.
func refAssignVirtuals(b *ir.Block, pool []ir.Reg) error {
	// Interval ends: last position reading each virtual.
	lastUse := map[ir.Reg]int{}
	var buf []ir.Reg
	for i := range b.Instrs {
		buf = b.Instrs[i].Uses(buf[:0])
		for _, u := range buf {
			if u.IsVirtual() {
				lastUse[u] = i
			}
		}
	}

	free := append([]ir.Reg(nil), pool...)
	assign := map[ir.Reg]ir.Reg{}
	type active struct {
		virt ir.Reg
		end  int
	}
	var live []active

	expire := func(pos int) {
		kept := live[:0]
		for _, a := range live {
			if a.end < pos {
				free = append(free, assign[a.virt])
			} else {
				kept = append(kept, a)
			}
		}
		live = kept
	}

	rewrite := func(r *ir.Reg) {
		if r.IsVirtual() {
			if phys, ok := assign[*r]; ok {
				*r = phys
			}
		}
	}

	for i := range b.Instrs {
		expire(i)
		ins := &b.Instrs[i]
		// Uses first (they read values defined earlier).
		rewrite(&ins.Src1)
		rewrite(&ins.Src2)
		for ai := range ins.Args {
			rewrite(&ins.Args[ai])
		}
		// Then the def.
		if ins.HasDst() && ins.Dst.IsVirtual() {
			v := ins.Dst
			if _, dup := assign[v]; dup {
				return fmt.Errorf("regalloc: virtual %v defined twice", v)
			}
			if len(free) == 0 {
				return fmt.Errorf("regalloc: out of registers at instruction %d (pool %d)", i, len(pool))
			}
			// Deterministic choice: smallest-numbered free register.
			sort.Slice(free, func(a, b int) bool { return free[a] < free[b] })
			phys := free[0]
			free = free[1:]
			assign[v] = phys
			end, used := lastUse[v]
			if !used || end < i {
				end = i // dead def: release immediately on next expire
			}
			live = append(live, active{virt: v, end: end})
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
