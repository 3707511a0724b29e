package validate_test

import (
	"strings"
	"testing"

	"pathsched/internal/core"
	"pathsched/internal/ir"
	"pathsched/internal/profile"
	"pathsched/internal/sched"
	"pathsched/internal/validate"
)

// loopProg is a loop whose hot path invites superblock formation with
// tail duplication and load speculation, and whose body stores and
// emits so both effect streams are exercised.
func loopProg() *ir.Program {
	bd := ir.NewBuilder("loop", 64)
	bd.Data(0, 7, 9)
	pb := bd.Proc("main")
	entry, head, b1, b2, rare, latch, exit :=
		pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock()
	const i, s, c, t1, t2, t3, base = 1, 2, 3, 4, 5, 6, 7
	entry.Add(ir.MovI(i, 0), ir.MovI(s, 0), ir.MovI(base, 0))
	entry.Jmp(head.ID())
	head.Add(ir.CmpLTI(c, i, 300))
	head.Br(c, b1.ID(), exit.ID())
	b1.Add(ir.AddI(t1, i, 3), ir.AndI(c, i, 63), ir.CmpEQI(c, c, 63))
	b1.Br(c, rare.ID(), b2.ID())
	b2.Add(
		ir.Load(t2, base, 0), ir.Load(t3, base, 1),
		ir.Add(s, s, t2), ir.Add(s, s, t3), ir.Add(s, s, t1),
		ir.Store(base, 3, s),
	)
	b2.Jmp(latch.ID())
	rare.Add(ir.AddI(s, s, 1000))
	rare.Jmp(latch.ID())
	latch.Add(ir.AddI(i, i, 1))
	latch.Jmp(head.ID())
	exit.Add(ir.Emit(s))
	exit.Ret(s)
	return bd.Finish()
}

// callProg exercises call havoc: two calls in sequence whose results
// and memory effects feed later observables.
func callProg() *ir.Program {
	bd := ir.NewBuilder("callp", 64)
	bd.Data(0, 5)
	hp := bd.Proc("helper")
	hb := hp.NewBlock()
	hb.Add(ir.MovI(4, 8), ir.Add(3, 1, 2), ir.Store(4, 0, 3), ir.Emit(3))
	hb.Ret(3)
	mp := bd.Proc("main")
	b0, b1, b2 := mp.NewBlock(), mp.NewBlock(), mp.NewBlock()
	b0.Add(ir.MovI(1, 2), ir.MovI(2, 3))
	b0.Call(5, hp.ID(), b1.ID(), 1, 2)
	b1.Add(ir.AddI(6, 5, 1), ir.Load(7, 5, 0))
	b1.Call(8, hp.ID(), b2.ID(), 6, 7)
	b2.Add(ir.Emit(8))
	b2.Ret(8)
	bd.SetMain(mp.ID())
	return bd.Finish()
}

var schemes = []string{"bb", "edge", "path"}

// compileScheme compiles prog under one of the three schemes and
// returns the transformed program; prog itself is never mutated.
func compileScheme(t *testing.T, prog *ir.Program, scheme string) *ir.Program {
	t.Helper()
	work := ir.CloneProgram(prog)
	if scheme == "bb" {
		if err := sched.CompactBasicBlocks(work, sched.Options{}); err != nil {
			t.Fatalf("CompactBasicBlocks: %v", err)
		}
		return work
	}
	tp, err := profile.Train(prog, profile.PathConfig{})
	if err != nil {
		t.Fatalf("training run: %v", err)
	}
	cfg := core.DefaultConfig()
	cfg.Method = core.EdgeBased
	if scheme == "path" {
		cfg.Method = core.PathBased
	}
	cfg.Edge, cfg.Path = tp.Edge, tp.Path
	cfg.MinExecFreq = 2
	res, err := core.Form(work, cfg)
	if err != nil {
		t.Fatalf("Form: %v", err)
	}
	if err := sched.Compact(res, sched.Options{}); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	return res.Prog
}

// requireAllProved asserts every procedure proved and returns the
// report.
func requireAllProved(t *testing.T, pristine, transformed *ir.Program) *validate.Report {
	t.Helper()
	rep := validate.Program(pristine, transformed, validate.Options{})
	if len(rep.Issues) != 0 {
		t.Fatalf("unexpected issues: %v", rep.Issues)
	}
	if rep.Stats.Proved != rep.Stats.Procs || rep.Stats.Bounded != 0 || rep.Stats.Failed != 0 {
		t.Fatalf("stats = %v, want all %d proved", rep.Stats, rep.Stats.Procs)
	}
	return rep
}

func TestProvedAcrossSchemes(t *testing.T) {
	for _, prog := range []*ir.Program{loopProg(), callProg()} {
		for _, scheme := range schemes {
			t.Run(prog.Name+"/"+scheme, func(t *testing.T) {
				transformed := compileScheme(t, prog, scheme)
				rep := requireAllProved(t, prog, transformed)
				// callProg's calls can merge into one block (their
				// continuations become in-block fallthroughs), leaving no
				// cuts; the loop always branches between blocks.
				if rep.Stats.Cuts == 0 && prog.Name == "loop" {
					t.Fatalf("no cuts checked: %v", rep.Stats)
				}
			})
		}
	}
}

// The validator must also prove a program against itself when it
// carries metadata — and report Bounded, not Proved, when it doesn't.
func TestUnscheduledIsBounded(t *testing.T) {
	prog := loopProg()
	rep := validate.Program(prog, ir.CloneProgram(prog), validate.Options{})
	if len(rep.Issues) != 0 {
		t.Fatalf("unexpected issues: %v", rep.Issues)
	}
	if rep.Stats.Bounded != rep.Stats.Procs || rep.Stats.Procs == 0 {
		t.Fatalf("stats = %v, want every proc bounded", rep.Stats)
	}
	if r := rep.Procs[0].Reason; !strings.Contains(r, "lacks schedule or trace metadata") {
		t.Fatalf("reason = %q", r)
	}
}

// Budget boundaries: exactly-at-budget proves, one-under goes Bounded
// with the budget named in the reason — never a silent pass.
func TestBudgetBoundaries(t *testing.T) {
	prog := loopProg()
	transformed := compileScheme(t, prog, "path")
	base := requireAllProved(t, prog, transformed)
	pr := base.Procs[0]

	maxDepth := 0
	for _, b := range transformed.Procs[0].Blocks {
		maxDepth = max(maxDepth, len(b.UnitOrigins))
	}
	if maxDepth < 2 {
		t.Fatalf("no merged superblock formed (max depth %d)", maxDepth)
	}
	cases := []struct {
		name      string
		at, under validate.Options
		reason    string
	}{
		{"depth", validate.Options{DepthBudget: maxDepth}, validate.Options{DepthBudget: maxDepth - 1}, "trace depth"},
		{"path", validate.Options{PathBudget: pr.Cuts}, validate.Options{PathBudget: pr.Cuts - 1}, "exit cuts"},
		{"node", validate.Options{NodeBudget: pr.Nodes}, validate.Options{NodeBudget: pr.Nodes - 1}, "expression nodes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := validate.Program(prog, transformed, tc.at)
			if rep.Stats.Proved != rep.Stats.Procs {
				t.Fatalf("at-budget stats = %v, want all proved", rep.Stats)
			}
			rep = validate.Program(prog, transformed, tc.under)
			if rep.Stats.Bounded != 1 || len(rep.Issues) != 0 {
				t.Fatalf("under-budget stats = %v issues = %v, want one bounded proc", rep.Stats, rep.Issues)
			}
			if r := rep.Procs[0].Reason; !strings.Contains(r, tc.reason) {
				t.Fatalf("reason = %q, want mention of %q", r, tc.reason)
			}
		})
	}
}

func TestCorruptTraceMetadataFails(t *testing.T) {
	prog := loopProg()
	transformed := compileScheme(t, prog, "path")
	transformed.Procs[0].Blocks[0].UnitOrigins[0] = 999
	rep := validate.Program(prog, transformed, validate.Options{})
	if rep.Stats.Failed != 1 {
		t.Fatalf("stats = %v, want failed", rep.Stats)
	}
	found := false
	for _, is := range rep.Issues {
		if strings.Contains(is.Msg, "does not exist") {
			found = true
			if is.Proc != "main" || is.Block != 0 {
				t.Fatalf("issue lacks identity: %v", is)
			}
		}
	}
	if !found {
		t.Fatalf("no issue mentions the bad origin: %v", rep.Issues)
	}
}

func TestProcedureShapeMismatch(t *testing.T) {
	prog := callProg()
	transformed := compileScheme(t, prog, "bb")
	truncated := ir.CloneProgram(transformed)
	truncated.Procs = truncated.Procs[:1]
	rep := validate.Program(prog, truncated, validate.Options{})
	if len(rep.Issues) != 1 || !strings.Contains(rep.Issues[0].Msg, "procedure count changed") {
		t.Fatalf("issues = %v", rep.Issues)
	}

	renamed := compileScheme(t, prog, "bb")
	renamed.Procs[0].Name = "evil"
	rep = validate.Program(prog, renamed, validate.Options{})
	if rep.Stats.Failed != 1 {
		t.Fatalf("stats = %v, want one failed", rep.Stats)
	}
	if !strings.Contains(rep.Issues[0].Msg, "renamed") {
		t.Fatalf("issues = %v", rep.Issues)
	}
}

// Two direct miscompile smokes at the validate API level (the full
// teeth matrix lives in internal/check's equiv_teeth_test.go).

func TestDetectsDroppedStore(t *testing.T) {
	prog := loopProg()
	transformed := compileScheme(t, prog, "path")
	requireAllProved(t, prog, transformed)
	for _, b := range transformed.Procs[0].Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpStore {
				b.Instrs[i] = ir.Nop()
				goto mutated
			}
		}
	}
	t.Fatal("no store found in compiled program")
mutated:
	rep := validate.Program(prog, transformed, validate.Options{})
	if rep.Stats.Failed != 1 || len(rep.Issues) == 0 {
		t.Fatalf("dropped store not caught: %v", rep.Stats)
	}
}

func TestDetectsSwappedBranchTargets(t *testing.T) {
	prog := loopProg()
	transformed := compileScheme(t, prog, "path")
	requireAllProved(t, prog, transformed)
	// Merged-block branches survive as mid-block exits whose on-trace
	// direction is an in-block fallthrough (NoBlock); swapping the slots
	// inverts the branch sense.
	for _, b := range transformed.Procs[0].Blocks {
		for i := range b.Instrs {
			ins := &b.Instrs[i]
			if ins.Op == ir.OpBr && ins.Targets[0] != ins.Targets[1] {
				ins.Targets[0], ins.Targets[1] = ins.Targets[1], ins.Targets[0]
				goto mutated
			}
		}
	}
	t.Fatal("no conditional branch with distinct targets found")
mutated:
	rep := validate.Program(prog, transformed, validate.Options{})
	if rep.Stats.Failed != 1 || len(rep.Issues) == 0 {
		t.Fatalf("swapped branch not caught: %v", rep.Stats)
	}
}

func TestIssueAndVerdictStrings(t *testing.T) {
	is := validate.Issue{Proc: "p", Block: 3, Instr: 2, Msg: "boom"}
	if got, want := is.String(), `validate: proc "p" block b3 instr 2: boom`; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	is = validate.Issue{Proc: "p", Block: ir.NoBlock, Instr: validate.NoInstr, Msg: "boom"}
	if got, want := is.String(), `validate: proc "p": boom`; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	for v, want := range map[validate.Verdict]string{
		validate.Proved: "proved", validate.Bounded: "bounded", validate.Failed: "failed",
	} {
		if v.String() != want {
			t.Fatalf("Verdict(%d).String() = %q", v, v.String())
		}
	}
}
