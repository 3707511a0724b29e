package pipeline

import (
	"encoding/json"
	"testing"

	"pathsched/internal/bench"
	"pathsched/internal/core"
	"pathsched/internal/ir"
	"pathsched/internal/layout"
	"pathsched/internal/machine"
	"pathsched/internal/sched"
	"pathsched/internal/validate"
)

// The suite's procedure census at the canonical inputs: of the 2,392
// procedures the four formed schemes produce, 747 are distinct within
// their benchmark, so 1,645 are shared; BB's 598 are all compiled.
const (
	suiteProcsCompiled = 1345
	suiteProcsShared   = 1645
)

// unshared is the oracle for scheme s's build: the same formed build
// compacted whole by sched.Compact (sched.CompactBasicBlocks for BB)
// and proved whole by validate.Program, no procedure shared, then laid
// out as build lays it out.
func unshared(t *testing.T, r *Runner, s Scheme, br *benchRun) *compiled {
	t.Helper()
	cfg, haveCfg, err := r.formConfig(s, br.tp.Edge, br.tp.Path)
	if err != nil {
		t.Fatal(err)
	}
	so := r.opts.Sched
	c := &compiled{}
	if so.Exact.Enabled {
		c.gap = &sched.GapStats{}
		so.GapStats = c.gap
	}
	if haveCfg {
		formed, err := core.Form(br.test, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sched.Compact(formed, so); err != nil {
			t.Fatal(err)
		}
		c.bin, c.stats = formed.Prog, formed.Stats
	} else {
		c.bin = ir.CloneProgram(br.test)
		if err := sched.CompactBasicBlocks(c.bin, so); err != nil {
			t.Fatal(err)
		}
	}
	rep := validate.Program(br.test, c.bin, r.budgets)
	if len(rep.Issues) > 0 {
		t.Fatalf("%s: unshared compile does not prove: %v", s, rep.Issues[0])
	}
	c.vstats = &rep.Stats
	in, err := r.layoutWeights(br.train, c.bin, br.tp.Trace)
	if err != nil {
		t.Fatal(err)
	}
	layout.Assign(c.bin, in)
	return c
}

// diffShared builds every scheme of each named benchmark through the
// benchmark's procedure table, four schemes at a time, and requires
// each laid-out binary, its measurement and its proof stats to equal
// the unshared oracle's.
func diffShared(t *testing.T, r *Runner, names []string) {
	t.Helper()
	schemes := AllSchemes()
	for _, name := range names {
		br, err := r.prepare(bench.ByName(name))
		if err != nil {
			t.Fatal(err)
		}
		cs := make([]*compiled, len(schemes))
		err = forEachLimited(len(schemes), 4, func(i int) error {
			c, err := r.buildScheme(schemes[i], br)
			cs[i] = c
			return err
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, s := range schemes {
			want := unshared(t, r, s, br)
			if g, w := ir.Fingerprint(cs[i].bin), ir.Fingerprint(want.bin); g != w {
				t.Errorf("%s/%s: shared binary %s, unshared %s", name, s, g.Short(), w.Short())
			}
			if *cs[i].vstats != *want.vstats {
				t.Errorf("%s/%s: shared proof %v, unshared %v", name, s, *cs[i].vstats, *want.vstats)
			}
			gm, err := r.measurement(s, cs[i], br)
			if err != nil {
				t.Fatal(err)
			}
			wm, err := r.measurement(s, want, br)
			if err != nil {
				t.Fatal(err)
			}
			gj, _ := json.Marshal(gm)
			wj, _ := json.Marshal(wm)
			if string(gj) != string(wj) {
				t.Errorf("%s/%s: shared measurement differs:\nshared   %s\nunshared %s", name, s, gj, wj)
			}
		}
	}
}

// TestSharedCompilesMatchUnshared: on every benchmark, with every gate
// on, each scheme's binary, measurement and proof stats are those of
// compiling and proving its formed build whole, and each distinct
// procedure is compiled once.
func TestSharedCompilesMatchUnshared(t *testing.T) {
	names := bench.Names()
	if testing.Short() {
		names = []string{"alt", "wc", "li"}
	}
	c := machine.DefaultICache()
	r := NewRunner(Options{Cache: &c, Check: CheckOn})
	diffShared(t, r, names)
	if testing.Short() {
		return
	}
	if cs := r.CompileStats(); cs.ProcsCompiled != suiteProcsCompiled || cs.ProcsShared != suiteProcsShared {
		t.Errorf("procedures: %d compiled / %d shared, want %d / %d",
			cs.ProcsCompiled, cs.ProcsShared, suiteProcsCompiled, suiteProcsShared)
	}
}

// TestSharedExactCompilesMatchUnshared: under exact scheduling a share
// also carries its procedure's part of the gap accounting.
func TestSharedExactCompilesMatchUnshared(t *testing.T) {
	r := NewRunner(Options{Check: CheckOn, Sched: sched.Options{Exact: sched.ExactConfig{Enabled: true}}})
	diffShared(t, r, []string{"alt", "ph", "corr", "wc"})
}

// TestSharedBoundedCompilesMatchUnshared: a procedure the validator
// leaves Bounded is shared with its Bounded verdict, so each compile
// that holds it is still executed rather than replayed.
func TestSharedBoundedCompilesMatchUnshared(t *testing.T) {
	c := machine.DefaultICache()
	r := NewRunnerWithBudgets(Options{Cache: &c}, validate.Options{NodeBudget: 1})
	diffShared(t, r, []string{"wc"})
	cs := r.CompileStats()
	if cs.ProcsShared == 0 {
		t.Fatal("no procedure shared")
	}
	// Both the shared and the unshared builds are measured.
	if n := 2 * int64(len(AllSchemes())); cs.MeasureRuns != n || cs.MeasureReplays != 0 {
		t.Errorf("measure: %d replayed / %d executed, want 0 / %d", cs.MeasureReplays, cs.MeasureRuns, n)
	}
}

// TestSharedProcedureCounts pins the suite's census at every worker
// count: a scheme that forms a procedure another scheme is compiling
// waits for it, so no distinct procedure is compiled twice.
func TestSharedProcedureCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("three suite runs")
	}
	for _, par := range []int{1, 2, 8} {
		r := NewRunner(Options{Parallelism: par, Check: CheckOff})
		if _, err := r.RunSuite(nil, AllSchemes()); err != nil {
			t.Fatal(err)
		}
		cs := r.CompileStats()
		if cs.Compiles != int64(len(bench.Names())*len(AllSchemes())) {
			t.Errorf("par=%d: %d compiles", par, cs.Compiles)
		}
		if cs.ProcsCompiled != suiteProcsCompiled || cs.ProcsShared != suiteProcsShared {
			t.Errorf("par=%d: procedures: %d compiled / %d shared, want %d / %d",
				par, cs.ProcsCompiled, cs.ProcsShared, suiteProcsCompiled, suiteProcsShared)
		}
	}
}

// TestSharingNeedsAnEqualProcedure: a formed procedure shares only
// with one equal in every field and with the same superblock list.
// Changing only the virtual-register cursor, only the order of the
// superblocks, or only one block's SBID makes a new entry.
func TestSharingNeedsAnEqualProcedure(t *testing.T) {
	r := NewRunner(Options{Parallelism: 1, Check: CheckOff})
	br, err := r.prepare(bench.ByName("li"))
	if err != nil {
		t.Fatal(err)
	}
	cfg, _, err := r.formConfig(SchemeM4, br.tp.Edge, br.tp.Path)
	if err != nil {
		t.Fatal(err)
	}
	formed, err := core.Form(br.test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var p *ir.Proc
	for _, q := range formed.Prog.Procs {
		if len(formed.Superblocks[q.ID]) >= 2 {
			p = q
			break
		}
	}
	if p == nil {
		t.Fatal("no procedure with two superblocks")
	}
	sbs := formed.Superblocks[p.ID]
	copySBs := func() []*core.Superblock {
		out := make([]*core.Superblock, len(sbs))
		for i, sb := range sbs {
			c := *sb
			c.Blocks = append([]ir.BlockID(nil), sb.Blocks...)
			out[i] = &c
		}
		return out
	}
	owned, owner := br.procs.claim(p, sbs)
	if !owner {
		t.Fatal("first claim of a procedure does not own it")
	}
	if e, owner := br.procs.claim(ir.CloneProc(p), copySBs()); owner || e != owned {
		t.Fatal("an equal procedure does not share")
	}

	cursor := ir.CloneProc(p)
	cursor.NewVirtReg()
	swapped := copySBs()
	swapped[0], swapped[1] = swapped[1], swapped[0]
	sbid := ir.CloneProc(p)
	sbid.Blocks[len(sbid.Blocks)-1].SBID++
	for _, tc := range []struct {
		name string
		p    *ir.Proc
		sbs  []*core.Superblock
	}{
		{"virtual-register cursor", cursor, copySBs()},
		{"superblock order", ir.CloneProc(p), swapped},
		{"one SBID", sbid, copySBs()},
	} {
		if e, owner := br.procs.claim(tc.p, tc.sbs); !owner || e == owned {
			t.Errorf("a procedure differing only in its %s shares", tc.name)
		}
	}
}
