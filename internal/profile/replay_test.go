package profile_test

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pathsched/internal/bench"
	"pathsched/internal/core"
	"pathsched/internal/interp"
	"pathsched/internal/ir"
	"pathsched/internal/ir/irtest"
	"pathsched/internal/layout"
	"pathsched/internal/machine"
	"pathsched/internal/pipeline"
	"pathsched/internal/profile"
	"pathsched/internal/sched"
)

// replayScheme is one of the pipeline's five compile configurations.
type replayScheme struct {
	name string
	form func(*core.Config) // nil: the basic-block baseline
}

var replaySchemes = []replayScheme{
	{"BB", nil},
	{"M4", func(c *core.Config) { c.Method, c.UnrollFactor = core.EdgeBased, 4 }},
	{"M16", func(c *core.Config) { c.Method, c.UnrollFactor = core.EdgeBased, 16 }},
	{"P4e", func(c *core.Config) { c.Method, c.StopNonLoopAtFirstHead = core.PathBased, true }},
	{"P4", func(c *core.Config) { c.Method = core.PathBased }},
}

// compileFor forms (when the scheme forms) and compacts a clone of prog
// under the training profiles tp.
func compileFor(prog *ir.Program, tp *profile.TrainingProfiles, s replayScheme) (*ir.Program, error) {
	var so sched.Options
	if s.form == nil {
		bin := ir.CloneProgram(prog)
		return bin, sched.CompactBasicBlocks(bin, so)
	}
	cfg := core.DefaultConfig()
	cfg.Edge, cfg.Path = tp.Edge, tp.Path
	s.form(&cfg)
	res, err := core.Form(prog, cfg)
	if err != nil {
		return nil, err
	}
	return res.Prog, sched.Compact(res, so)
}

// sameProfile reports how a replayed point profile differs from an
// executed one: serialized bytes, per-procedure entries, successor
// order, and call counts must all agree.
func sameProfile(bin *ir.Program, want, got *profile.EdgeProfile, wantCalls, gotCalls map[[2]ir.ProcID]int64) error {
	if w, g := want.WriteText(), got.WriteText(); w != g {
		return fmt.Errorf("profile text differs:\n--- executed ---\n%s\n--- replayed ---\n%s", firstLines(w), firstLines(g))
	}
	for _, p := range bin.Procs {
		if w, g := want.Entries(p.ID), got.Entries(p.ID); w != g {
			return fmt.Errorf("%s: entries %d executed, %d replayed", p.Name, w, g)
		}
		for _, b := range p.Blocks {
			var ws, gs []int64
			want.ForEachSucc(p.ID, b.ID, func(to ir.BlockID, n int64) { ws = append(ws, int64(to), n) })
			got.ForEachSucc(p.ID, b.ID, func(to ir.BlockID, n int64) { gs = append(gs, int64(to), n) })
			if !reflect.DeepEqual(ws, gs) {
				return fmt.Errorf("%s b%d: successors %v executed, %v replayed", p.Name, b.ID, ws, gs)
			}
		}
	}
	if !reflect.DeepEqual(wantCalls, gotCalls) {
		return fmt.Errorf("call counts %v executed, %v replayed", wantCalls, gotCalls)
	}
	return nil
}

func firstLines(s string) string {
	lines := strings.SplitN(s, "\n", 40)
	if len(lines) == 40 {
		lines[39] = "..."
	}
	return strings.Join(lines, "\n")
}

// trainWith runs the named profiler over prog.
func trainWith(t testing.TB, prog *ir.Program, profiler string) *profile.TrainingProfiles {
	t.Helper()
	var tp *profile.TrainingProfiles
	var err error
	if profiler == "bl" {
		tp, err = profile.TrainBL(prog, profile.BLConfig{})
	} else {
		tp, err = profile.Train(prog, profile.PathConfig{})
	}
	if err != nil {
		t.Fatalf("training run: %v", err)
	}
	return tp
}

// TestReplayMatchesExecution pins replay to execution over the suite:
// for every benchmark, scheme and profiler, replaying the training
// run's trace over the compiled training build and over the compiled
// testing build must both give exactly the point profile of executing
// the compiled training build.
func TestReplayMatchesExecution(t *testing.T) {
	for _, name := range bench.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			b := bench.ByName(name)
			train, test := b.Build(b.Train), b.Build(b.Test)
			for _, profiler := range []string{"window", "bl"} {
				tp := trainWith(t, train, profiler)
				for _, s := range replaySchemes {
					trainBin, err := compileFor(train, tp, s)
					if err != nil {
						t.Fatalf("%s/%s: train compile: %v", profiler, s.name, err)
					}
					testBin, err := compileFor(test, tp, s)
					if err != nil {
						t.Fatalf("%s/%s: test compile: %v", profiler, s.name, err)
					}
					want, wantCalls, err := profile.PointProfiles(trainBin)
					if err != nil {
						t.Fatalf("%s/%s: layout run: %v", profiler, s.name, err)
					}
					for _, bin := range []struct {
						build string
						prog  *ir.Program
					}{{"train", trainBin}, {"test", testBin}} {
						got, gotCalls, err := profile.Replay(train, bin.prog, tp.Trace)
						if err != nil {
							t.Fatalf("%s/%s: replay over the %s compile: %v", profiler, s.name, bin.build, err)
						}
						if err := sameProfile(trainBin, want, got, wantCalls, gotCalls); err != nil {
							t.Fatalf("%s/%s: replay over the %s compile: %v", profiler, s.name, bin.build, err)
						}
					}
				}
			}
		})
	}
}

// fetchLog is a FetchSink that passes every range on to a cache and
// either records it, in order, or, given the record of another run,
// checks it against that record.
type fetchLog struct {
	cache  *machine.ICache
	ranges []int64 // recorded ranges, or the record to check against
	check  bool
	n      int // ranges seen
	bad    int // the first range that differs from the record, or -1
}

func (f *fetchLog) FetchRange(start, end int64) int64 {
	if !f.check {
		f.ranges = append(f.ranges, start, end)
	} else if f.bad < 0 && (2*f.n+1 >= len(f.ranges) || f.ranges[2*f.n] != start || f.ranges[2*f.n+1] != end) {
		f.bad = f.n
	}
	f.n++
	return f.cache.FetchRange(start, end)
}

// sameMeasurement executes bin, a laid-out compile of pristine, and
// walks it against refTrace, the trace of pristine's run ref: with no
// I-cache (cc nil) and with a cache of configuration cc, every Result
// counter, the sequence of FetchRange calls and the cache's accesses
// and misses must agree.
func sameMeasurement(pristine, bin *ir.Program, ref *interp.Result, refTrace *profile.BranchTrace, cc *machine.ICacheConfig) error {
	var execLog, walkLog *fetchLog
	var execFetch, walkFetch interp.FetchSink // nil, not a typed nil, without a cache
	if cc != nil {
		execLog = &fetchLog{cache: machine.NewICache(*cc)}
		execFetch = execLog
	}
	want, err := interp.Run(bin, interp.Config{Fetch: execFetch})
	if err != nil {
		return fmt.Errorf("measurement run: %w", err)
	}
	if want.Ret != ref.Ret || !slices.Equal(want.Output, ref.Output) {
		return fmt.Errorf("compile diverges from the reference run")
	}
	if cc != nil {
		walkLog = &fetchLog{cache: machine.NewICache(*cc), ranges: execLog.ranges, check: true, bad: -1}
		walkFetch = walkLog
	}
	got, err := profile.Measure(pristine, bin, refTrace, walkFetch)
	if err != nil {
		return fmt.Errorf("measurement walk: %w", err)
	}
	want.Ret, want.Output = 0, nil
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("cache %+v: walked %+v, executed %+v", cc, *got, *want)
	}
	if cc == nil {
		return nil
	}
	if walkLog.bad >= 0 || walkLog.n != execLog.n {
		return fmt.Errorf("cache %+v: fetch sequences differ from range %d on, of %d walked and %d executed",
			cc, walkLog.bad, walkLog.n, execLog.n)
	}
	if w, g := execLog.cache, walkLog.cache; w.Accesses() != g.Accesses() || w.Misses() != g.Misses() {
		return fmt.Errorf("cache %+v: walked %d accesses / %d misses, executed %d / %d",
			cc, g.Accesses(), g.Misses(), w.Accesses(), w.Misses())
	}
	return nil
}

// TestMeasureReplayMatchesExecution pins the measurement walk to the
// measurement run it replaces, over every benchmark and scheme, each
// laid-out testing compile built as the pipeline builds it: walked
// against the reference run's trace and executed, with no I-cache, the
// default cache and a two-way one, and on the realistic machine with
// the default cache, every Result counter and the exact FetchRange
// sequence must agree.
func TestMeasureReplayMatchesExecution(t *testing.T) {
	realistic := machine.Default()
	realistic.Realistic = true
	def, twoWay := machine.DefaultICache(), machine.DefaultICache()
	twoWay.Ways = 2
	arms := []struct {
		mc     machine.Config
		caches []*machine.ICacheConfig
	}{
		{machine.Default(), []*machine.ICacheConfig{nil, &def, &twoWay}},
		{realistic, []*machine.ICacheConfig{&def}},
	}
	for _, name := range bench.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			b := bench.ByName(name)
			train, test := b.Build(b.Train), b.Build(b.Test)
			tp := trainWith(t, train, "window")
			ref, refTrace, err := profile.RecordRun(test)
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			for _, arm := range arms {
				r := pipeline.NewRunner(pipeline.Options{Parallelism: 1, Sched: sched.Options{Machine: arm.mc}})
				for _, s := range pipeline.AllSchemes() {
					bin, err := r.Build(s, train, test, tp)
					if err != nil {
						t.Fatalf("%s realistic=%v: %v", s, arm.mc.Realistic, err)
					}
					for _, cc := range arm.caches {
						if err := sameMeasurement(test, bin, ref, refTrace, cc); err != nil {
							t.Fatalf("%s realistic=%v: %v", s, arm.mc.Realistic, err)
						}
					}
				}
			}
		})
	}
}

// replayFixture trains on a benchmark's training build with the window
// profiler and compiles its testing build under scheme s.
func replayFixture(t testing.TB, name string, s replayScheme) (train, bin *ir.Program, tp *profile.TrainingProfiles) {
	t.Helper()
	b := bench.ByName(name)
	train = b.Build(b.Train)
	tp = trainWith(t, train, "window")
	bin, err := compileFor(b.Build(b.Test), tp, s)
	if err != nil {
		t.Fatalf("%s/%s compile: %v", name, s.name, err)
	}
	return train, bin, tp
}

// findInstr returns the first instruction of bin satisfying ok, or nil.
func findInstr(bin *ir.Program, ok func(p *ir.Proc, ins *ir.Instr) bool) *ir.Instr {
	for _, p := range bin.Procs {
		for _, b := range p.Blocks {
			for i := range b.Instrs {
				if ok(p, &b.Instrs[i]) {
					return &b.Instrs[i]
				}
			}
		}
	}
	return nil
}

// TestReplayRejectsMutations pins the walker's self-checks: each
// broken premise — in the compile's trace metadata, in its control
// flow, or in the trace itself — must fail both Replay and Measure
// rather than return a profile or a Result.
func TestReplayRejectsMutations(t *testing.T) {
	train, bin, tp := replayFixture(t, "gcc", replaySchemes[4])
	if _, _, err := profile.Replay(train, bin, tp.Trace); err != nil {
		t.Fatalf("unmutated compile rejected: %v", err)
	}
	if _, err := profile.Measure(train, bin, tp.Trace, nil); err != nil {
		t.Fatalf("unmutated compile rejected by the measurement walk: %v", err)
	}
	ds, blocks := profile.TraceDecisions(tp.Trace), profile.TraceBlocks(tp.Trace)
	if len(ds) == 0 {
		t.Fatal("gcc's training run recorded no decisions")
	}
	cases := []struct {
		name   string
		mutate func(t *testing.T, bin *ir.Program)
		trace  *profile.BranchTrace
		want   string
	}{
		{
			name: "nil UnitOrigins",
			mutate: func(t *testing.T, bin *ir.Program) {
				p := bin.Procs[bin.Main]
				p.Blocks[len(p.Blocks)-1].UnitOrigins = nil
			},
			want: "no trace metadata",
		},
		{
			name: "exit retargeted to another origin",
			mutate: func(t *testing.T, bin *ir.Program) {
				var other ir.BlockID
				ins := findInstr(bin, func(p *ir.Proc, ins *ir.Instr) bool {
					for _, tg := range ins.Targets {
						if tg == ir.NoBlock {
							continue
						}
						for _, x := range p.Blocks {
							if x.UnitOrigins[0] != p.Blocks[tg].UnitOrigins[0] {
								other = x.ID
								return true
							}
						}
					}
					return false
				})
				if ins == nil {
					t.Fatal("no exit to retarget")
				}
				for k, tg := range ins.Targets {
					if tg != ir.NoBlock {
						ins.Targets[k] = other
						return
					}
				}
			},
			want: "pristine successor is",
		},
		{
			name: "swapped br slots",
			mutate: func(t *testing.T, bin *ir.Program) {
				ins := findInstr(bin, func(_ *ir.Proc, ins *ir.Instr) bool {
					return ins.Op == ir.OpBr && ins.Targets[0] != ins.Targets[1]
				})
				if ins == nil {
					t.Fatal("no two-way br to swap")
				}
				ins.Targets[0], ins.Targets[1] = ins.Targets[1], ins.Targets[0]
			},
			want: "pristine successor is",
		},
		{
			name: "call to another callee",
			mutate: func(t *testing.T, bin *ir.Program) {
				ins := findInstr(bin, func(_ *ir.Proc, ins *ir.Instr) bool { return ins.Op == ir.OpCall })
				if ins == nil {
					t.Fatal("no call to redirect")
				}
				ins.Callee = (ins.Callee + 1) % ir.ProcID(len(bin.Procs))
			},
			want: "calls proc",
		},
		{
			name:  "trace one decision short",
			trace: profile.WithDecisions(ds[:len(ds)-1], blocks),
			want:  "runs out",
		},
		{
			name:  "trace one decision long",
			trace: profile.WithDecisions(append(append([]int(nil), ds...), 0), blocks),
			want:  "left over",
		},
		{
			name:  "block count one short",
			trace: profile.WithDecisions(ds, blocks-1),
			want:  "outruns",
		},
		{
			name:  "block count one long",
			trace: profile.WithDecisions(ds, blocks+1),
			want:  "walk covers",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mbin, tr := bin, tp.Trace
			if c.mutate != nil {
				mbin = ir.CloneProgram(bin)
				c.mutate(t, mbin)
			}
			if c.trace != nil {
				tr = c.trace
			}
			prof, _, err := profile.Replay(train, mbin, tr)
			if err == nil {
				t.Fatal("mutation accepted")
			}
			if prof != nil {
				t.Error("rejected replay still returned a profile")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want it to mention %q", err, c.want)
			}
			res, err := profile.Measure(train, mbin, tr, machine.NewICache(machine.DefaultICache()))
			if err == nil {
				t.Fatal("mutation accepted by the measurement walk")
			}
			if res != nil {
				t.Error("rejected measurement walk still returned a result")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("measurement walk: err = %v, want it to mention %q", err, c.want)
			}
		})
	}
}

// wideSwitchProg loops over a switch with more distinct successors than
// a decision byte can index, so its trace needs the escape encoding.
func wideSwitchProg(arms int) *ir.Program {
	bd := ir.NewBuilder("wide", 16)
	p := bd.Proc("main")
	entry, head, latch, exit := p.NewBlock(), p.NewBlock(), p.NewBlock(), p.NewBlock()
	entry.Add(ir.MovI(1, 0))
	entry.Jmp(head.ID())
	targets := make([]ir.BlockID, arms)
	for k := range targets {
		arm := p.NewBlock()
		arm.Add(ir.MovI(3, int64(k)))
		arm.Add(ir.Emit(3))
		arm.Jmp(latch.ID())
		targets[k] = arm.ID()
	}
	head.Add(ir.MulI(2, 1, 37))
	head.Add(ir.AndI(2, 2, 511))
	head.Switch(2, targets...)
	latch.Add(ir.AddI(1, 1, 1))
	latch.Add(ir.CmpLTI(4, 1, 600))
	latch.Br(4, head.ID(), exit.ID())
	exit.Ret(1)
	return bd.Finish()
}

// TestTracesMatchOracle pins the trace the engine records to the
// per-event oracle: RecordRun's over both builds of every benchmark and
// a switch wide enough to need the escape byte, and Train's over the
// training builds and the switch.
func TestTracesMatchOracle(t *testing.T) {
	type build struct {
		prog  *ir.Program
		train bool
	}
	builds := []build{{wideSwitchProg(320), true}}
	for _, b := range bench.All() {
		builds = append(builds, build{b.Build(b.Train), true}, build{b.Build(b.Test), false})
	}
	for _, b := range builds {
		want, err := profile.OracleTrace(b.prog)
		if err != nil {
			t.Fatal(err)
		}
		_, got, err := profile.RecordRun(b.prog)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the reference run's trace differs from the oracle's", b.prog.Name)
		}
		if !b.train {
			continue
		}
		tp, err := profile.Train(b.prog, profile.PathConfig{Depth: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tp.Trace, want) {
			t.Errorf("%s: the training run's trace differs from the oracle's", b.prog.Name)
		}
	}
}

func TestReplayWideSwitch(t *testing.T) {
	prog := wideSwitchProg(320)
	tp := trainWith(t, prog, "window")
	escaped := 0
	for _, k := range profile.TraceDecisions(tp.Trace) {
		if k >= 255 {
			escaped++
		}
	}
	if escaped == 0 {
		t.Fatal("no decision index reached the escape range")
	}
	for _, s := range replaySchemes {
		bin, err := compileFor(prog, tp, s)
		if err != nil {
			t.Fatalf("%s compile: %v", s.name, err)
		}
		want, wantCalls, err := profile.PointProfiles(bin)
		if err != nil {
			t.Fatal(err)
		}
		got, gotCalls, err := profile.Replay(prog, bin, tp.Trace)
		if err != nil {
			t.Fatalf("%s replay: %v", s.name, err)
		}
		if err := sameProfile(bin, want, got, wantCalls, gotCalls); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
	}
}

// FuzzReplay pins both walks to execution over random executable
// programs under basic-block, edge-based and path-based compiles: the
// layout replay against the compile's point profile, and the
// measurement walk against executing the laid-out compile.
func FuzzReplay(f *testing.F) {
	f.Add(int64(1), uint8(8))
	f.Add(int64(2), uint8(12))
	f.Add(int64(42), uint8(6))
	f.Add(int64(-7), uint8(20))
	f.Add(int64(1234567), uint8(31))
	f.Fuzz(func(t *testing.T, seed int64, sz uint8) {
		prog := irtest.RandExecProg(seed, int(sz%28)+4)
		tp, err := profile.Train(prog, profile.PathConfig{})
		if err != nil {
			t.Skipf("training run rejected: %v", err)
		}
		ref, refTrace, err := profile.RecordRun(prog)
		if err != nil {
			t.Fatalf("reference run: %v", err)
		}
		if !slices.Equal(profile.TraceDecisions(refTrace), profile.TraceDecisions(tp.Trace)) ||
			profile.TraceBlocks(refTrace) != profile.TraceBlocks(tp.Trace) {
			t.Fatal("the reference run records another trace than the training run of the same program")
		}
		for _, s := range []replayScheme{replaySchemes[0], replaySchemes[1], replaySchemes[4]} {
			bin, err := compileFor(prog, tp, s)
			if err != nil {
				continue // formation may refuse odd shapes; not replay's bug
			}
			want, wantCalls, err := profile.PointProfiles(bin)
			if err != nil {
				t.Fatalf("%s layout run: %v", s.name, err)
			}
			got, gotCalls, err := profile.Replay(prog, bin, tp.Trace)
			if err != nil {
				t.Fatalf("%s replay: %v", s.name, err)
			}
			if err := sameProfile(bin, want, got, wantCalls, gotCalls); err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			// The program is its own testing build: lay the compile out
			// and measure it on a cache small enough to miss.
			layout.Assign(bin, layout.Input{CallCounts: gotCalls, BlockFreq: got.BlockFreq, EdgeFreq: got.EdgeFreq})
			if err := sameMeasurement(prog, bin, ref, refTrace, &machine.ICacheConfig{SizeBytes: 256, LineBytes: 16, Penalty: 6, Ways: 2}); err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
		}
	})
}

// BenchmarkReplay races each walk against the execution it replaces:
// layout replay against PointProfiles on gcc's P4 compile of its
// training build, and the measurement walk against the measurement run
// on gcc's laid-out P4 compile of its testing build.
func BenchmarkReplay(b *testing.B) {
	gcc := bench.ByName("gcc")
	train := gcc.Build(gcc.Train)
	tp := trainWith(b, train, "window")
	bin, err := compileFor(train, tp, replaySchemes[4])
	if err != nil {
		b.Fatal(err)
	}
	b.Run("replay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := profile.Replay(train, bin, tp.Trace); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("execute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := profile.PointProfiles(bin); err != nil {
				b.Fatal(err)
			}
		}
	})

	// The measurement arms: gcc's laid-out P4 testing compile on the
	// default I-cache, walked against the reference run's trace and
	// executed.
	test := gcc.Build(gcc.Test)
	testBin, err := pipeline.NewRunner(pipeline.Options{Parallelism: 1}).Build(pipeline.SchemeP4, train, test, tp)
	if err != nil {
		b.Fatal(err)
	}
	_, refTrace, err := profile.RecordRun(test)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("measure-replay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := profile.Measure(test, testBin, refTrace, machine.NewICache(machine.DefaultICache())); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("measure-execute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := interp.Run(testBin, interp.Config{Fetch: machine.NewICache(machine.DefaultICache())}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
