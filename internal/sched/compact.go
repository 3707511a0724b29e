// Package sched is the superblock compaction pass (the paper's
// "compact", §2.3): it merges each superblock into a single extended
// block, performs dead-code elimination and the three renaming forms,
// top-down cycle schedules the result for the experimental VLIW, maps
// virtual registers back onto the architected file, and annotates the
// code with issue cycles so the interpreter can measure cycle counts —
// including the cost of early exits.
//
// Exactly as in the paper, the same compaction runs on superblocks from
// edge-based and path-based formation; only the form pass differs.
package sched

import (
	"errors"
	"fmt"

	"pathsched/internal/core"
	"pathsched/internal/ir"
	"pathsched/internal/machine"
	"pathsched/internal/regalloc"
)

// BlockDeps records, per scheduled head block, the dependence edges the
// scheduler itself computed — indexed over the block's *emitted*
// instruction order, which is exactly the order internal/check
// re-derives them in. Passing the recording to check.SchedulesWithDeps
// spares checked runs a full recomputation of every block's
// dependences. Keys are block pointers: they survive the block
// renumbering removeDeadBlocks performs after scheduling.
type BlockDeps map[*ir.Block][]DepEdge

// Options configures compaction.
type Options struct {
	// Machine is the resource/latency model (default: machine.Default).
	Machine machine.Config
	// DisableRenaming turns off all renaming (for ablation studies).
	DisableRenaming bool
	// DisableDCE turns off dead-code elimination (for ablation).
	DisableDCE bool
	// DisableVN turns off local value numbering (for ablation). Value
	// numbering requires renaming and is skipped automatically when
	// renaming is off.
	DisableVN bool
	// Parallelism is ignored: Compact runs its procedures in order.
	// The field remains only because the benchmark harness
	// (cmd/bench/trace.go) still sets it.
	Parallelism int
	// RecordDeps, when non-nil, receives every scheduled head block's
	// dependence edges mapped to emitted instruction order, for
	// check.SchedulesWithDeps, as each superblock is scheduled.
	// Callers must not share it across concurrent Compact calls.
	RecordDeps BlockDeps
	// Exact switches scheduling to the branch-and-bound exact search
	// (exact.go), falling back to the list schedule above its budgets.
	Exact ExactConfig
	// GapStats, when non-nil, accumulates per-region list-vs-exact
	// span statistics (only meaningful with Exact.Enabled) as each
	// superblock is scheduled. Callers must not share it across
	// concurrent Compact calls.
	GapStats *GapStats
}

func (o Options) withDefaults() Options {
	if o.Machine.FuncUnits == 0 {
		o.Machine = machine.Default()
	}
	o.Exact = o.Exact.Normalized()
	return o
}

// Compact schedules every superblock of res in place: after it
// returns, each superblock is a single merged block carrying Cycles,
// Span, SBSize, and ExitUnits annotations, dead constituent blocks are
// removed, and res.Superblocks reflects the new block ids. Procedures
// compact in order (CompactProc) on one scratch, so the first failing
// procedure's error is the one returned.
func Compact(res *core.Result, opts Options) error {
	var s Scratch
	for _, p := range res.Prog.Procs {
		if err := CompactProc(p, res.Superblocks[p.ID], opts, &s); err != nil {
			return err
		}
	}
	if err := ir.Verify(res.Prog); err != nil {
		return fmt.Errorf("sched: compaction produced invalid IR: %w", err)
	}
	return nil
}

// Scratch is compaction's reusable working memory (scratch.go). The
// zero value is ready to use; one Scratch serves any number of
// CompactProc calls in sequence, never two at once, and never changes
// what they produce.
type Scratch struct{ s *scratch }

// CompactProc compacts one procedure's superblocks sbs in place, in
// list order over one register pool, as Compact does for each
// procedure. It reads nothing outside p and sbs, so equal procedures
// with equal superblock lists (IDs and blocks, in order) compact to
// equal results. It does not run ir.Verify, which checks calls against
// the whole program.
func CompactProc(p *ir.Proc, sbs []*core.Superblock, opts Options, sc *Scratch) error {
	if sc.s == nil {
		sc.s = newScratch()
	}
	opts = opts.withDefaults()
	live := LiveIn(p)
	pool := regalloc.FreePool(p)
	for _, sb := range sbs {
		if err := compactSuperblock(p, sb, live, pool, opts, sc.s); err != nil {
			return fmt.Errorf("sched: %s sb%d: %w", p.Name, sb.ID, err)
		}
	}
	if err := removeDeadBlocks(p, sbs); err != nil {
		return fmt.Errorf("sched: %s: %w", p.Name, err)
	}
	return nil
}

// CompactBasicBlocks schedules each reachable basic block of prog
// independently on the same machine model — the paper's baseline
// "basic-block scheduled" configuration (Table 1). Each block becomes
// a singleton superblock.
func CompactBasicBlocks(prog *ir.Program, opts Options) error {
	return Compact(BasicBlockSuperblocks(prog), opts)
}

// BasicBlockSuperblocks wraps each reachable block of prog as a
// singleton superblock, numbered in block order: the partition
// CompactBasicBlocks compacts.
func BasicBlockSuperblocks(prog *ir.Program) *core.Result {
	res := &core.Result{Prog: prog, Superblocks: map[ir.ProcID][]*core.Superblock{}}
	for _, p := range prog.Procs {
		g := ir.NewCFG(p)
		var sbs []*core.Superblock
		for _, b := range p.Blocks {
			if !g.Reachable(b.ID) {
				continue
			}
			sbs = append(sbs, &core.Superblock{
				ID:     len(sbs),
				Proc:   p.ID,
				Blocks: []ir.BlockID{b.ID},
			})
		}
		res.Superblocks[p.ID] = sbs
	}
	return res
}

func compactSuperblock(p *ir.Proc, sb *core.Superblock, live []RegSet, pool regalloc.Pool, opts Options, s *scratch) error {
	nodes, err := mergeSuperblock(p, sb, live, s)
	if err != nil {
		return err
	}
	record := opts.RecordDeps != nil
	head := p.Block(sb.Blocks[0])
	// The no-renaming fallback re-merges lazily (register pressure
	// failures are rare): rename mutates instruction operands in place
	// and install overwrites the head block the merge reads from, so
	// the original head instructions are saved for restoration.
	origInstrs := head.Instrs
	tryRename := !opts.DisableRenaming
	var gap gapRecord
	final, cycles, span, edges, err := scheduleNodes(p, nodes, tryRename, opts, s, record, &gap)
	if err != nil {
		return tagCycleError(err, p, sb)
	}
	install(p, head, sb, final, cycles, span)
	if tryRename {
		// Register allocation; on pressure failure, retry without
		// renaming (the fallback schedule is allocation-clean since it
		// introduces no virtual registers). Any other allocator error
		// is a renaming bug and must not hide behind the fallback.
		if aerr := s.ra.AssignVirtuals(head, pool); aerr != nil {
			if !errors.Is(aerr, regalloc.ErrOutOfRegisters) {
				return aerr
			}
			head.Instrs = origInstrs
			fallback, merr := mergeSuperblock(p, sb, live, s)
			if merr != nil {
				return merr
			}
			// The retry overwrites gap: only the kept schedule counts.
			final, cycles, span, edges, err = scheduleNodes(p, fallback, false, opts, s, record, &gap)
			if err != nil {
				return tagCycleError(err, p, sb)
			}
			install(p, head, sb, final, cycles, span)
		}
	}
	if record {
		// The head block pointer is stable across the renumbering
		// removeDeadBlocks performs after the procedure's last
		// superblock.
		opts.RecordDeps[head] = edges
	}
	if opts.GapStats != nil {
		opts.GapStats.add(gap)
	}
	sb.Blocks = sb.Blocks[:1]
	return nil
}

// tagCycleError stamps a scheduler CycleError with the procedure and
// superblock head block it came from.
func tagCycleError(err error, p *ir.Proc, sb *core.Superblock) error {
	var ce *CycleError
	if errors.As(err, &ce) && ce.Proc == "" {
		ce.Proc = p.Name
		ce.Block = sb.Blocks[0]
	}
	return err
}

// scheduleNodes runs DCE/renaming, builds the DDG, schedules, and
// returns the nodes in final linear order with their cycles. Node
// storage and the returned nodes live in the scratch; the cycle slice
// is fresh (it escapes into the installed block). When record is set,
// the dependence edges are returned mapped to emitted positions. Under
// Options.Exact the branch-and-bound scheduler replaces the list
// scheduler and gap (when non-nil) receives the region's outcome.
func scheduleNodes(p *ir.Proc, nodes []node, doRename bool, opts Options, s *scratch, record bool, gap *gapRecord) ([]node, []int32, int32, []DepEdge, error) {
	if doRename {
		nodes = rename(p, nodes, s)
		if !opts.DisableVN {
			// Value numbering needs the single-assignment property that
			// renaming establishes (§2.3's per-superblock VN + DCE).
			nodes = valueNumber(nodes, s)
		}
	}
	if !opts.DisableDCE {
		nodes = eliminateDeadDefs(nodes, s)
	}
	g, edges := buildDDG(nodes, opts.Machine, s)
	var cycles []int32
	var span int32
	var err error
	if opts.Exact.Enabled {
		var listSpan int32
		var status exactStatus
		cycles, span, listSpan, status, err = exactSchedule(nodes, g, opts.Machine, opts.Exact, s)
		if err == nil && gap != nil {
			*gap = gapRecord{valid: true, status: status, listSpan: listSpan, exactSpan: span}
		}
	} else {
		cycles, span, err = listSchedule(nodes, g, opts.Machine, s)
	}
	if err != nil {
		return nil, nil, 0, nil, err
	}

	// Linearize by (cycle, program order): a counting sort over cycles
	// with ascending index placement, identical to the stable sort it
	// replaces. Program order breaks ties so latency-0 pairs (WAR,
	// control pins) execute correctly under the sequential interpreter.
	n := len(nodes)
	cnt := i32zero(&s.ccnt, int(span)+1)
	for _, c := range cycles[:n] {
		cnt[c]++
	}
	pos := int32(0)
	for c := range cnt {
		k := cnt[c]
		cnt[c] = pos
		pos += k
	}
	order := i32buf(&s.order, n)       // emitted position -> node index
	finalPos := i32buf(&s.finalPos, n) // node index -> emitted position
	for i := 0; i < n; i++ {
		c := cycles[i]
		order[cnt[c]] = int32(i)
		finalPos[i] = cnt[c]
		cnt[c]++
	}

	// Mark speculative loads: a load that now executes before an exit
	// that originally preceded it has been hoisted above that exit and
	// must not fault (§3.2's non-excepting instructions).
	exits := s.exits[:0]
	for i := range nodes {
		if nodes[i].isExit {
			exits = append(exits, int32(i))
		}
	}
	s.exits = exits
	outNodes := s.outNodes
	if cap(outNodes) < n {
		outNodes = make([]node, n)
	}
	outNodes = outNodes[:n]
	s.outNodes = outNodes
	outCycles := make([]int32, n)
	for pp := 0; pp < n; pp++ {
		idx := order[pp]
		nd := nodes[idx]
		if nd.ins.Op == ir.OpLoad {
			for _, e := range exits {
				if e < idx && finalPos[e] > int32(pp) {
					nd.ins.Spec = true
					break
				}
			}
		}
		outNodes[pp] = nd
		outCycles[pp] = cycles[idx]
	}
	var recEdges []DepEdge
	if record {
		recEdges = make([]DepEdge, len(edges))
		for k := range edges {
			e := &edges[k]
			recEdges[k] = DepEdge{
				From: int(finalPos[e.From]),
				To:   int(finalPos[e.To]),
				Lat:  e.Lat,
				Kind: e.Kind,
			}
		}
	}
	return outNodes, outCycles, span, recEdges, nil
}

// eliminateDeadDefs is the per-superblock dead-code elimination of
// §2.3: instructions without side effects whose virtual result is
// never read are dropped, iterating until stable. Only virtual
// destinations are candidates — architectural defs may be live outside
// the superblock. The used-set is a scratch bitset over the dense
// register window (architected file + the superblock's virtual range),
// and the node list is filtered in place.
func eliminateDeadDefs(nodes []node, s *scratch) []node {
	// The virtual window only shrinks as instructions die, so one
	// mapping up front covers every iteration.
	minVirt, maxVirt := ir.Reg(-1), ir.Reg(-1)
	buf := s.usesBuf
	defer func() { s.usesBuf = buf }()
	for i := range nodes {
		u := nodes[i].ins.Uses(buf[:0])
		buf = u
		for _, r := range u {
			if r >= ir.VirtBase {
				if minVirt < 0 || r < minVirt {
					minVirt = r
				}
				if r > maxVirt {
					maxVirt = r
				}
			}
		}
		if nodes[i].ins.HasDst() {
			if r := nodes[i].ins.Dst; r >= ir.VirtBase {
				if minVirt < 0 || r < minVirt {
					minVirt = r
				}
				if r > maxVirt {
					maxVirt = r
				}
			}
		}
	}
	nRegs := ir.PhysRegs
	if minVirt >= 0 {
		nRegs += int(maxVirt-minVirt) + 1
	}
	regIndex := func(r ir.Reg) int {
		if r < ir.VirtBase {
			return int(r)
		}
		return ir.PhysRegs + int(r-minVirt)
	}
	for {
		used := u64zero(&s.dceUsed, (nRegs+63)/64)
		for i := range nodes {
			u := nodes[i].ins.Uses(buf[:0])
			buf = u
			for _, r := range u {
				ri := regIndex(r)
				used[ri>>6] |= 1 << uint(ri&63)
			}
		}
		kept := nodes[:0]
		removed := false
		for i := range nodes {
			nd := nodes[i]
			dead := false
			if nd.ins.HasDst() && nd.ins.Dst.IsVirtual() && nd.ins.CanSpeculate() && !nd.isExit {
				ri := regIndex(nd.ins.Dst)
				dead = used[ri>>6]&(1<<uint(ri&63)) == 0
			}
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

// install writes the merged schedule into the superblock's head block.
// It also records UnitOrigins — each constituent's pristine origin
// block — while sb.Blocks still holds the pre-renumbering formed ids,
// so the translation validator can map the merged block back to the
// original trace after removeDeadBlocks has rewritten every other id.
func install(p *ir.Proc, head *ir.Block, sb *core.Superblock, nodes []node, cycles []int32, span int32) {
	head.Instrs = make([]ir.Instr, len(nodes))
	head.ExitUnits = make([]int32, len(nodes))
	head.Units = make([]int32, len(nodes))
	for i := range nodes {
		head.Instrs[i] = nodes[i].ins
		if nodes[i].isExit {
			head.ExitUnits[i] = int32(nodes[i].unit) + 1
		}
		head.Units[i] = int32(nodes[i].unit) + 1
	}
	head.Cycles = cycles
	head.Span = span
	head.SBSize = int32(len(sb.Blocks))
	head.SBID = int32(sb.ID)
	head.SBIndex = 0
	head.UnitOrigins = make([]ir.BlockID, len(sb.Blocks))
	for u, id := range sb.Blocks {
		head.UnitOrigins[u] = p.Block(id).Origin
	}
}

// removeDeadBlocks drops blocks made unreachable by merging and
// renumbers the survivors, rewriting every branch target and the
// superblock lists. The entry block keeps id 0.
func removeDeadBlocks(p *ir.Proc, sbs []*core.Superblock) error {
	g := ir.NewCFG(p)
	remap := make([]ir.BlockID, len(p.Blocks))
	var kept []*ir.Block
	for _, b := range p.Blocks {
		if g.Reachable(b.ID) {
			remap[b.ID] = ir.BlockID(len(kept))
			kept = append(kept, b)
		} else {
			remap[b.ID] = ir.NoBlock
		}
	}
	for _, b := range kept {
		old := b.ID
		b.ID = remap[old]
		if b.Origin >= 0 && int(b.Origin) < len(remap) && remap[b.Origin] != ir.NoBlock {
			b.Origin = remap[b.Origin]
		} else {
			b.Origin = b.ID // origin died; self-origin keeps the verifier happy
		}
		for i := range b.Instrs {
			ins := &b.Instrs[i]
			for j, t := range ins.Targets {
				if t == ir.NoBlock {
					continue
				}
				nt := remap[t]
				if nt == ir.NoBlock {
					return fmt.Errorf("block b%d targets dead block b%d", old, t)
				}
				ins.Targets[j] = nt
			}
		}
	}
	p.Blocks = kept
	for _, sb := range sbs {
		for i, b := range sb.Blocks {
			sb.Blocks[i] = remap[b]
		}
	}
	return nil
}
