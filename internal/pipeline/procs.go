package pipeline

import (
	"slices"
	"sync"
	"time"

	"pathsched/internal/check"
	"pathsched/internal/core"
	"pathsched/internal/ir"
	"pathsched/internal/sched"
	"pathsched/internal/validate"
)

// procTable holds one benchmark's compiled procedures, per procedure
// id, for the schemes RunBenchmark compiles; it lives for that call.
// A procedure's compile is a deterministic function of the formed
// procedure, its superblock list, the compaction options and validator
// budgets (fixed per runner) and the pristine procedure (fixed per
// benchmark), so a formed procedure equal to one already compiled, with
// an equal superblock list, takes that compile and its verdict
// (DESIGN.md §12 item 7).
type procTable struct {
	slots []procSlot
}

// procSlot lists the compiled variants of one procedure.
type procSlot struct {
	mu      sync.Mutex
	entries []*procEntry
}

// procEntry is one distinct formed procedure and, once done is closed,
// its compile. Its owner (the scheme that formed it first) compacts
// and proves it while later schemes forming an equal procedure wait on
// done, so each distinct procedure is compiled once at any worker
// count.
type procEntry struct {
	// formed is a private deep copy of the formed procedure (compaction
	// rewrites the owner's in place) and sbs its superblock list: what
	// an equal procedure must match.
	formed *ir.Proc
	sbs    []formedSB
	done   chan struct{}
	// ok reports the owner compiled and proved the procedure without
	// issues; out is valid only then. A failed procedure is never
	// shared: a scheme forming it again compiles it itself.
	ok  bool
	out procCompile
}

// formedSB is the part of a superblock compaction reads.
type formedSB struct {
	id     int
	blocks []ir.BlockID
}

// procCompile is one procedure's compile: the compacted procedure, the
// dependence edges the scheduler recorded per block index (checked
// runs only), its share of the exact scheduler's gap accounting, and
// its proof against the pristine procedure.
type procCompile struct {
	proc   *ir.Proc
	deps   [][]sched.DepEdge
	gap    sched.GapStats
	report validate.ProcReport
}

func newProcTable(procs int) *procTable {
	return &procTable{slots: make([]procSlot, procs)}
}

// claim returns the entry of the formed procedure p with superblock
// list sbs. owner is true when no equal procedure was formed before:
// the caller must compile p and settle the entry. Otherwise the entry
// is settled once its done channel is closed.
func (t *procTable) claim(p *ir.Proc, sbs []*core.Superblock) (e *procEntry, owner bool) {
	s := &t.slots[p.ID]
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.entries {
		if e.matches(p, sbs) {
			return e, false
		}
	}
	e = &procEntry{formed: ir.CloneProc(p), sbs: make([]formedSB, len(sbs)), done: make(chan struct{})}
	for i, sb := range sbs {
		e.sbs[i] = formedSB{id: sb.ID, blocks: slices.Clone(sb.Blocks)}
	}
	s.entries = append(s.entries, e)
	return e, true
}

// matches reports whether p with superblocks sbs is e's formed
// procedure: equal in every field (ir.ProcEqual), with the same
// superblocks, IDs and blocks, in the same order.
func (e *procEntry) matches(p *ir.Proc, sbs []*core.Superblock) bool {
	if len(sbs) != len(e.sbs) || !ir.ProcEqual(e.formed, p) {
		return false
	}
	for i, sb := range sbs {
		if sb.ID != e.sbs[i].id || !slices.Equal(sb.Blocks, e.sbs[i].blocks) {
			return false
		}
	}
	return true
}

// settle records the owner's compile of e (nil when it failed) and
// releases the schemes waiting on it. The entry keeps its own block
// headers, so the owner may lay its procedure out while others copy
// them.
func (e *procEntry) settle(pc *procCompile) {
	if pc != nil {
		e.ok = true
		e.out = *pc
		e.out.proc = ir.ShareProc(pc.proc)
	}
	close(e.done)
}

// procScratch is the working memory one compile reuses across its
// procedures.
type procScratch struct {
	sched sched.Scratch
	valid validate.Scratch
}

// compileProc returns the compile of p, procedure p.ID of a formed
// program with superblocks sbs, proved against pristine. Through a
// table it is compiled only when no equal procedure was compiled
// before; otherwise the compiled procedure is shared: fresh block
// headers over the same instructions and annotations, which nothing
// after compaction writes.
func (r *Runner) compileProc(t *procTable, pristine, p *ir.Proc, sbs []*core.Superblock, sc *procScratch) (*procCompile, error) {
	if t == nil {
		return r.compileOwn(pristine, p, sbs, sc)
	}
	// The lookup counts as compaction time; waiting for another
	// scheme's compile of the same procedure does not.
	t0 := time.Now()
	e, owner := t.claim(p, sbs)
	r.stats.compactNS.Add(int64(time.Since(t0)))
	if owner {
		pc, err := r.compileOwn(pristine, p, sbs, sc)
		e.settle(pc)
		return pc, err
	}
	<-e.done
	if !e.ok {
		return r.compileOwn(pristine, p, sbs, sc)
	}
	r.stats.procsShared.Add(1)
	pc := e.out
	pc.proc = ir.ShareProc(e.out.proc)
	return &pc, nil
}

// compileOwn compacts p in place and proves it against pristine. A
// proof that reports issues fails the compile; a Bounded one does not
// (its compile is executed rather than replayed, see measure).
func (r *Runner) compileOwn(pristine, p *ir.Proc, sbs []*core.Superblock, sc *procScratch) (*procCompile, error) {
	r.stats.procsCompiled.Add(1)
	pc := &procCompile{proc: p}
	// Checked compiles record the scheduler's own dependence edges so
	// the schedule check consumes them instead of recomputing every
	// block's dependences; exact compiles keep their gap accounting.
	// Both land in this procedure's compile, which a share hands on.
	so := r.opts.Sched
	if r.check {
		so.RecordDeps = sched.BlockDeps{}
	}
	if so.Exact.Enabled {
		so.GapStats = &pc.gap
	}
	t0 := time.Now()
	err := sched.CompactProc(p, sbs, so, &sc.sched)
	r.stats.compactNS.Add(int64(time.Since(t0)))
	if err != nil {
		return nil, err
	}
	if so.RecordDeps != nil {
		pc.deps = make([][]sched.DepEdge, len(p.Blocks))
		for i, b := range p.Blocks {
			pc.deps[i] = so.RecordDeps[b]
		}
	}
	t1 := time.Now()
	pr, vs := check.EquivProc(pristine, p, r.budgets, &sc.valid)
	r.stats.validateNS.Add(int64(time.Since(t1)))
	if err := check.Err("validate", vs); err != nil {
		return nil, err
	}
	pc.report = pr
	return pc, nil
}
