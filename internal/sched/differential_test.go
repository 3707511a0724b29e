package sched

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"pathsched/internal/bench"
	"pathsched/internal/core"
	"pathsched/internal/interp"
	"pathsched/internal/ir"
	"pathsched/internal/ir/irtest"
	"pathsched/internal/profile"
	"pathsched/internal/regalloc"
)

// compactArm is one way to compact a formed program. Every arm must
// produce byte-identical output.
type compactArm struct {
	name    string
	compact func(*core.Result) error
}

// compactArms is Compact with and without dependence recording, plus
// the seed oracle (reference_test.go).
func compactArms() []compactArm {
	return []compactArm{
		{"compact", func(res *core.Result) error { return Compact(res, Options{}) }},
		{"recorddeps", func(res *core.Result) error {
			return Compact(res, Options{RecordDeps: BlockDeps{}})
		}},
		{"reference", func(res *core.Result) error { return refCompact(res, Options{}) }},
	}
}

// formCase is one formation input: a program and the resolved config
// core.Form builds its superblocks with.
type formCase struct {
	name string
	prog *ir.Program
	cfg  core.Config
}

// benchCases forms a suite benchmark's test build under M4 and P4, as
// the pipeline does: profiles come from profile.Train on its training
// build.
func benchCases(t testing.TB, name string) []formCase {
	t.Helper()
	b := bench.ByName(name)
	tp, err := profile.Train(b.Build(b.Train), profile.PathConfig{})
	if err != nil {
		t.Fatalf("%s: training: %v", name, err)
	}
	prog := b.Build(b.Test)
	m4, p4 := core.DefaultConfig(), core.DefaultConfig()
	m4.Method, m4.UnrollFactor = core.EdgeBased, 4
	p4.Method = core.PathBased
	for _, cfg := range []*core.Config{&m4, &p4} {
		cfg.Edge, cfg.Path = tp.Edge, tp.Path
	}
	return []formCase{{name + "/M4", prog, m4}, {name + "/P4", prog, p4}}
}

// compactSeeds are the RandExecProg seeds of the compactArms
// differential; pressurePools are the pool sizes its register-pressure
// variants leave main (withPoolSize).
var (
	compactSeeds  = []int64{1, 2, 5, 9}
	pressurePools = []int{0, 2}
)

// Compact's output must be byte-identical — pinned by the structural
// fingerprint — with and without dependence recording and against the
// preserved reference compaction path, on random programs and on the
// suite's wc and alt. The random programs also come with main left 0
// or 2 free registers, so the differential covers the no-renaming
// fallback (TestCompactPressureFallback checks that it is reached).
// Every compile must run like its pristine program and keep no virtual
// register.
func TestCompactWorkerDeterminism(t *testing.T) {
	progs := map[string]*ir.Program{"hot": hotTrace(300)}
	for _, seed := range compactSeeds {
		prog := irtest.RandExecProg(seed, 16)
		progs[fmt.Sprintf("rand%d", seed)] = prog
		for _, size := range pressurePools {
			progs[fmt.Sprintf("rand%d/pool%d", seed, size)] = withPoolSize(prog, size)
		}
	}
	var cases []formCase
	for name, prog := range progs {
		for _, method := range []core.Method{core.EdgeBased, core.PathBased} {
			cases = append(cases, formCase{fmt.Sprintf("%s/%v", name, method), prog, trainedConfig(t, prog, method)})
		}
	}
	cases = append(cases, benchCases(t, "wc")...)
	cases = append(cases, benchCases(t, "alt")...)
	for _, c := range cases {
		want, err := interp.Run(c.prog, interp.Config{})
		if err != nil {
			t.Fatalf("%s: pristine run: %v", c.name, err)
		}
		var base ir.Digest
		for ai, arm := range compactArms() {
			res, err := core.Form(c.prog, c.cfg)
			if err != nil {
				t.Fatalf("%s: Form: %v", c.name, err)
			}
			if err := arm.compact(res); err != nil {
				t.Fatalf("%s %s: %v", c.name, arm.name, err)
			}
			fp := ir.Fingerprint(res.Prog)
			if ai == 0 {
				base = fp
			} else if fp != base {
				t.Fatalf("%s: %s fingerprint %x differs from the compact arm's %x", c.name, arm.name, fp, base)
			}
			for _, p := range res.Prog.Procs {
				for _, b := range p.Blocks {
					if hasVirtual(b.Instrs) {
						t.Fatalf("%s %s: virtual register survives in %s b%d", c.name, arm.name, p.Name, b.ID)
					}
				}
			}
			got, err := interp.Run(res.Prog, interp.Config{})
			if err != nil {
				t.Fatalf("%s %s: run: %v", c.name, arm.name, err)
			}
			mustMatch(t, want, got, c.name+" "+arm.name)
		}
	}
}

// CompactBasicBlocks schedules every block of every procedure of a
// multi-procedure program; every arm must produce the same bytes.
func TestCompactBasicBlocksWorkerDeterminism(t *testing.T) {
	for _, seed := range []int64{3, 4, 8} {
		prog := irtest.RandExecProg(seed, 20)
		var base ir.Digest
		for ai, arm := range compactArms() {
			clone := ir.CloneProgram(prog)
			if err := arm.compact(basicBlockSuperblocks(clone)); err != nil {
				t.Fatalf("seed %d %s: %v", seed, arm.name, err)
			}
			fp := ir.Fingerprint(clone)
			if ai == 0 {
				base = fp
			} else if fp != base {
				t.Fatalf("seed %d: %s fingerprint differs from the compact arm's", seed, arm.name)
			}
		}
	}
}

// When several procedures fail, Compact must report the error of the
// lowest-numbered failing procedure.
func TestCompactErrorNamesFirstFailingProc(t *testing.T) {
	bd := ir.NewBuilder("bad", 16)
	// A valid main so only the doctored procedures can fail.
	mb := bd.Proc("main")
	m0 := mb.NewBlock()
	m0.Add(ir.MovI(1, 7))
	m0.Ret(1)
	// Two procedures whose superblocks will claim both blocks, putting
	// the first block's ret mid-superblock — a deterministic merge
	// error.
	mkBad := func(name string) (ir.ProcID, []ir.BlockID) {
		pb := bd.Proc(name)
		b0, b1 := pb.NewBlock(), pb.NewBlock()
		b0.Add(ir.MovI(1, 1))
		b0.Ret(1)
		b1.Add(ir.MovI(2, 2))
		b1.Ret(2)
		return pb.ID(), []ir.BlockID{b0.ID(), b1.ID()}
	}
	f1, f1blocks := mkBad("f1")
	f2, f2blocks := mkBad("f2")
	prog := bd.Program() // intentionally unverified: b1 is unreachable

	res := &core.Result{
		Prog: prog,
		Superblocks: map[ir.ProcID][]*core.Superblock{
			f1: {{ID: 0, Proc: f1, Blocks: f1blocks}},
			f2: {{ID: 0, Proc: f2, Blocks: f2blocks}},
		},
	}
	err := Compact(res, Options{})
	if err == nil {
		t.Fatal("expected merge error, got none")
	}
	if got := err.Error(); !strings.Contains(got, "f1") || !strings.Contains(got, "mid-superblock") {
		t.Fatalf("error %q does not name the first failing proc", got)
	}
}

// withPoolSize returns a copy of prog whose main procedure leaves only
// k registers free: self-moves (mov rK, rK, semantic no-ops) prepended
// to main's entry block name every other register main never named,
// keeping the k highest-numbered ones free.
func withPoolSize(prog *ir.Program, k int) *ir.Program {
	out := ir.CloneProgram(prog)
	main := out.Proc(out.Main)
	free := poolRegs(regalloc.FreePool(main))
	var moves []ir.Instr
	for _, r := range free[:len(free)-k] {
		moves = append(moves, ir.Mov(r, r))
	}
	entry := main.Blocks[0]
	entry.Instrs = append(moves, entry.Instrs...)
	return out
}

// hasVirtual reports whether any operand of instrs is virtual.
func hasVirtual(instrs []ir.Instr) bool {
	for i := range instrs {
		ins := &instrs[i]
		if ins.Dst.IsVirtual() || ins.Src1.IsVirtual() || ins.Src2.IsVirtual() {
			return true
		}
		for _, a := range ins.Args {
			if a.IsVirtual() {
				return true
			}
		}
	}
	return false
}

// The register-pressure variants of TestCompactWorkerDeterminism must
// really reach the no-renaming fallback. Main's pool holds exactly 0
// or 2 registers; over main's renamed superblock heads, the empty pool
// sends every one back, and the 2-register pool allocates some and
// sends others back.
func TestCompactPressureFallback(t *testing.T) {
	for _, size := range pressurePools {
		allocated, fellBack := 0, 0
		for _, seed := range compactSeeds {
			prog := withPoolSize(irtest.RandExecProg(seed, 16), size)
			if got := regalloc.FreePool(prog.Proc(prog.Main)).Len(); got != size {
				t.Fatalf("seed %d: main's pool holds %d registers, want %d", seed, got, size)
			}
			for _, method := range []core.Method{core.EdgeBased, core.PathBased} {
				res, err := core.Form(prog, trainedConfig(t, prog, method))
				if err != nil {
					t.Fatalf("seed %d %v: Form: %v", seed, method, err)
				}
				var s regalloc.Scratch
				for _, h := range preallocHeads(t, res) {
					if h.proc != prog.Main || !hasVirtual(h.instrs) {
						continue
					}
					switch err := s.AssignVirtuals(&ir.Block{Instrs: h.instrs}, h.pool); {
					case err == nil:
						allocated++
					case errors.Is(err, regalloc.ErrOutOfRegisters):
						fellBack++
					default:
						t.Fatalf("seed %d %v: %v", seed, method, err)
					}
				}
			}
		}
		t.Logf("pool %d: %d renamed heads of main allocated, %d fell back", size, allocated, fellBack)
		if fellBack == 0 || (size == 0) != (allocated == 0) {
			t.Fatalf("pool %d: %d heads allocated and %d fell back; want fallbacks, and allocations iff the pool is non-empty",
				size, allocated, fellBack)
		}
	}
}

// Only register pressure may fall back to the unrenamed schedule. A
// virtual that renaming leaves unresolved (here a read of a virtual
// nothing defines) is a compiler bug: Compact must return it, tagged
// with the procedure and superblock.
func TestCompactSurfacesNonPressureAllocErrors(t *testing.T) {
	bd := ir.NewBuilder("unresolved", 16)
	b0 := bd.Proc("main").NewBlock()
	b0.Add(ir.MovI(1, 7), ir.Add(2, 1, ir.VirtBase+5), ir.Emit(2))
	b0.Ret(2)
	err := CompactBasicBlocks(bd.Finish(), Options{})
	if err == nil {
		t.Fatal("an unresolved virtual compacted without error")
	}
	if errors.Is(err, regalloc.ErrOutOfRegisters) {
		t.Fatalf("unresolved virtual reported as register pressure: %v", err)
	}
	if want := "sched: main sb0: regalloc: unresolved virtual in"; !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("error %q, want prefix %q", err, want)
	}
}
