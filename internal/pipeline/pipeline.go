// Package pipeline wires the full system together, reproducing the
// paper's methodology (§3): profile the training input (edge + general
// path + call graph in one run), form superblocks with the scheme
// under study, compact them for the experimental VLIW, place
// procedures Pettis–Hansen style, and measure the testing input —
// cycle counts with and without the 32KB direct-mapped instruction
// cache.
//
// Benchmarks bake their input into the program (data segments and loop
// bounds), while their CFG structure is input-independent. Profiles
// therefore transfer from the training build to the testing build by
// block id, and formation — which is deterministic given a profile —
// produces structurally identical transformed programs for both
// builds. The pipeline exploits that twice. Each scheme compiles only
// the testing build. Its layout weights — the profile of the
// transformed program on the training input, as a profile-guided link
// step would gather them — come from replaying the training run's
// recorded branch decisions over that compile (profile.Replay), so no
// compiled program is executed for layout. Compiling, validating,
// replaying and laying out are one build step, and its product — the
// laid-out binary and its proof — is what a scheme measures.
//
// The measurement is a replay too. The translation validator proves
// every exit of a compile branches as its pristine terminator does, so
// a proved compile's departures on the testing input follow from the
// reference run's branch decisions: the reference run (the pristine
// testing build, profile.RecordRun) records them, and each scheme's
// counters and I-cache stream are walked from them (profile.Measure).
// Only a compile with a Bounded procedure, which carries no such proof,
// is executed, and its output checked against the reference run's.
// The interpreter therefore runs only pristine programs: a training
// and a reference run per benchmark.
//
// Because formation is deterministic given an immutable frozen profile,
// the per-benchmark and per-scheme measurements are independent of one
// another: RunSuite fans benchmarks out across a bounded worker pool,
// and RunBenchmark fans the schemes out likewise. Frozen profiles
// (EdgeProfile, PathProfile, BranchTrace) and pristine builds are
// shared read-only across workers; a scheme's build mutates only the
// binary it is producing, which nobody else sees until it is finished
// and laid out, and its measurement (walk tables, cache model) is
// private to its worker. Results are assembled in input order
// regardless of completion order, so parallel and serial runs produce
// identical output. Options.Parallelism controls the pool (1 reproduces the
// historical serial order).
//
// Formation is the only stage that differs between schemes, and most
// of the procedures the schemes form for one benchmark are equal to a
// procedure another scheme formed (edge- and path-based formation treat
// hot code alike). Compaction and proof are deterministic functions of
// the procedure they are given, so RunBenchmark compacts and proves
// each distinct formed procedure once, and a scheme forming an equal
// one takes that compile and its verdict (procs.go).
//
// Determinism also makes each laid-out binary a function of its
// inputs alone, so an artifact store (Options.ArtifactStore, disk.go)
// can file it under a content address built from structural
// fingerprints of those inputs (compileKey): a scheme reads the binary
// an earlier run or another process published, and publishes what it
// builds. Nothing is memoized in memory — within one run every
// (benchmark, scheme) pair is built once — and the differential tests
// pin store-backed results, cold and warm, byte-identical to the
// storeless serial pipeline.
package pipeline

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pathsched/internal/bench"
	"pathsched/internal/check"
	"pathsched/internal/core"
	"pathsched/internal/interp"
	"pathsched/internal/ir"
	"pathsched/internal/layout"
	"pathsched/internal/machine"
	"pathsched/internal/profile"
	"pathsched/internal/sched"
	"pathsched/internal/store"
	"pathsched/internal/validate"
)

// Scheme names follow the paper's figures.
type Scheme string

const (
	// SchemeBB is the basic-block-scheduled baseline of Table 1.
	SchemeBB Scheme = "BB"
	// SchemeM4 and SchemeM16 are edge-profile mutual-most-likely
	// formation with unroll factors 4 and 16.
	SchemeM4  Scheme = "M4"
	SchemeM16 Scheme = "M16"
	// SchemeP4 is path-based formation with up to 4 superblock-loop
	// heads; SchemeP4e limits non-loop superblocks to tail-duplicated
	// code (§4).
	SchemeP4  Scheme = "P4"
	SchemeP4e Scheme = "P4e"
)

// AllSchemes returns every scheme in presentation order.
func AllSchemes() []Scheme {
	return []Scheme{SchemeBB, SchemeM4, SchemeM16, SchemeP4e, SchemeP4}
}

// CheckMode selects whether the semantic checker (internal/check)
// gates each pipeline stage.
type CheckMode int

const (
	// CheckAuto (the zero value) enables checking under `go test` and
	// disables it otherwise, so every test run checks the pipeline at
	// no cost to production runs.
	CheckAuto CheckMode = iota
	// CheckOn always checks.
	CheckOn
	// CheckOff never checks.
	CheckOff
)

// ValidateMode is ignored: the symbolic translation validator
// (internal/validate) gates every compile, because its proof is what
// lets a scheme be measured by replay (runScheme). The type and its two
// values remain only because the benchmark harness (cmd/bench) still
// sets them.
type ValidateMode int

const (
	ValidateOn  ValidateMode = iota + 1 // ignored: every compile is validated
	ValidateOff                         // ignored: every compile is validated
)

// ProfilerScheme selects which path-profiling scheme gathers the
// training profile.
type ProfilerScheme string

const (
	// ProfilerWindow is the paper's sliding-window general-path
	// profiler (the default; "" means the same).
	ProfilerWindow ProfilerScheme = "window"
	// ProfilerBL is Ball–Larus numbered path profiling with the
	// k-iteration extension: cheaper training runs, k-bounded
	// cross-iteration visibility.
	ProfilerBL ProfilerScheme = "bl"
)

// Options configures a pipeline run.
type Options struct {
	// Cache, when non-nil, simulates the instruction cache; the
	// measurement then reports both ideal and cache-adjusted cycles.
	Cache *machine.ICacheConfig
	// Profiler selects the path-profiling scheme for training runs
	// (default ProfilerWindow). Every downstream consumer (formation,
	// ablations, checks) sees an ordinary PathProfile either way.
	Profiler ProfilerScheme
	// BLIterations is the Ball–Larus k-iteration extension depth
	// (profile.BLConfig.Iterations, 0 = adapt to PathDepth); only
	// meaningful with ProfilerBL.
	BLIterations int
	// PathDepth overrides the general-path depth (default 15).
	PathDepth int
	// Form tweaks the formation config after scheme defaults apply
	// (used by ablation benches). It may be called from several
	// goroutines at once; it must only mutate the config it is given.
	Form func(*core.Config)
	// Sched carries compaction options (renaming/DCE ablations). Its
	// Machine is the VLIW model the compactor schedules for and the
	// schedule check verifies against (default machine.Default).
	Sched sched.Options
	// Parallelism bounds how many benchmarks (in RunSuite) and schemes
	// (in RunBenchmark) are measured concurrently. 0 means
	// runtime.GOMAXPROCS(0); 1 reproduces the historical serial
	// execution order exactly. Results are identical at any setting.
	// It is the pipeline's only fan-out: each scheme's formation and
	// compaction run its procedures in order.
	Parallelism int
	// ArtifactStore, when non-nil, is a persistent store of laid-out
	// binaries (see internal/store) keyed by compileKey: each scheme
	// reads its binary from there when an earlier run or another
	// process published it, and publishes what it builds otherwise.
	// Results are identical with or without it.
	ArtifactStore *store.Store
	// DisableProfileCache is ignored: the pipeline keeps no in-memory
	// memo to disable, so every scheme is built once or read from
	// ArtifactStore. The field remains only because the benchmark
	// harness (cmd/bench/trace.go) still sets it.
	DisableProfileCache bool
	// Check gates each stage with the semantic analyses of
	// internal/check: profile flow conservation after profiling,
	// superblock invariants after formation, schedule legality and
	// def-before-use after compaction, and flow conservation of the
	// layout profile replayed inside each compile build. Stage checks
	// run when a binary is built; one read from ArtifactStore is not
	// checked again. Checking is purely observational — it never
	// changes results, so it deliberately does not enter compile keys.
	Check CheckMode
	// Validate is ignored: every compile is validated (see
	// ValidateMode). The field remains only because the benchmark
	// harness (cmd/bench) still sets it.
	Validate ValidateMode
}

// Measurement is one (benchmark, scheme) data point.
type Measurement struct {
	Scheme Scheme

	Cycles      int64 // including fetch stalls when a cache is simulated
	IdealCycles int64 // cycles with a perfect I-cache
	FetchStall  int64

	CacheAccesses int64
	CacheMisses   int64
	MissRate      float64

	DynInstrs   int64
	DynBranches int64
	CodeBytes   int64 // transformed program size

	// Figure 7 statistics, dynamically weighted over superblock
	// entries.
	SBEntries         int64
	AvgBlocksExecuted float64
	AvgSBSize         float64

	FormStats core.Stats

	// Gap is the list-vs-exact span accounting of the measured build's
	// compile, present only when Options.Sched.Exact is enabled (the
	// "% of optimal" table). A binary read from the artifact store
	// carries the gap computed when it was built.
	Gap *sched.GapStats `json:"Gap,omitempty"`

	// Validation is the translation-validator verdict tally of the
	// measured build's compile; every compile is validated, so it is
	// always present. A binary read from the artifact store carries the
	// stats recorded when it was built. Excluded from JSON output, which
	// is pinned to measurement data.
	Validation *validate.Stats `json:"-"`
}

// Result bundles all measurements for one benchmark.
type Result struct {
	Name        string
	Description string
	Category    string

	// OrigCodeBytes is the untransformed binary size (Table 1 "Size").
	OrigCodeBytes int64

	ByScheme map[Scheme]*Measurement

	// ProfStats describes how the training run executed (scheme,
	// automaton sizes, batch statistics); surfaced by
	// cmd/experiments -profstats. Excluded from JSON output, which is
	// pinned to measurement data.
	ProfStats *profile.TrainStats `json:"-"`
}

// Runner runs the pipeline under one set of Options. Each benchmark is
// profiled once, and every scheme it measures reuses that training run.
type Runner struct {
	opts  Options
	check bool // resolved CheckMode
	// budgets bounds the translation validator's proofs; the zero value
	// (the validator's defaults) outside tests, which force Bounded
	// verdicts through it.
	budgets validate.Options
	stats   stageStats
	// diskHits and builds count the scheme builds read from and built
	// for ArtifactStore (see CacheStats).
	diskHits, builds atomic.Int64
}

// stageStats accumulates wall time per compile stage across all of a
// runner's (possibly concurrent) compiles.
type stageStats struct {
	formNS, compactNS, checkNS, validateNS, layoutNS, measureNS atomic.Int64
	compiles, layoutRuns, measureReplays, measureRuns           atomic.Int64
	procsCompiled, procsShared                                  atomic.Int64
}

// CompileStats reports where a runner's compile time went, summed over
// every compile it performed (concurrent stage times add up, so the
// totals can exceed wall time on parallel runs). Surfaced by
// cmd/experiments -compilestats.
type CompileStats struct {
	Compiles   int64 // compileWith invocations (store misses only, with a store)
	LayoutRuns int64 // layout-weight replays (profile.Replay): one per compile

	// MeasureReplays counts measurements walked against the reference
	// run's trace (profile.Measure), MeasureRuns those executed instead
	// because their compile has a Bounded procedure.
	MeasureReplays int64
	MeasureRuns    int64

	// ProcsCompiled counts procedures compacted and proved, ProcsShared
	// those a compile took from an equal procedure another scheme of
	// the same benchmark compiled (compileProc).
	ProcsCompiled int64
	ProcsShared   int64

	FormSeconds     float64 // superblock formation
	CompactSeconds  float64 // compaction of each procedure compiled, and procedure-table lookups
	CheckSeconds    float64 // semantic checker gates (0 when checking is off)
	ValidateSeconds float64 // translation validation of each procedure compiled
	LayoutSeconds   float64 // layout-weight replays
	MeasureSeconds  float64 // measurements, walked and executed
}

// CompileStats returns the per-stage compile wall-time counters
// accumulated so far.
func (r *Runner) CompileStats() CompileStats {
	return CompileStats{
		Compiles:        r.stats.compiles.Load(),
		LayoutRuns:      r.stats.layoutRuns.Load(),
		MeasureReplays:  r.stats.measureReplays.Load(),
		MeasureRuns:     r.stats.measureRuns.Load(),
		ProcsCompiled:   r.stats.procsCompiled.Load(),
		ProcsShared:     r.stats.procsShared.Load(),
		FormSeconds:     float64(r.stats.formNS.Load()) / 1e9,
		CompactSeconds:  float64(r.stats.compactNS.Load()) / 1e9,
		CheckSeconds:    float64(r.stats.checkNS.Load()) / 1e9,
		ValidateSeconds: float64(r.stats.validateNS.Load()) / 1e9,
		LayoutSeconds:   float64(r.stats.layoutNS.Load()) / 1e9,
		MeasureSeconds:  float64(r.stats.measureNS.Load()) / 1e9,
	}
}

// NewRunner returns a runner with the given options.
func NewRunner(opts Options) *Runner {
	if opts.Sched.Machine.FuncUnits == 0 {
		opts.Sched.Machine = machine.Default()
	}
	if opts.Parallelism <= 0 {
		opts.Parallelism = runtime.GOMAXPROCS(0)
	}
	r := &Runner{opts: opts}
	switch opts.Check {
	case CheckOn:
		r.check = true
	case CheckOff:
		r.check = false
	default:
		r.check = testing.Testing()
	}
	return r
}

// train runs the configured profiling scheme over the training build.
func (r *Runner) train(trainProg *ir.Program) (*profile.TrainingProfiles, error) {
	switch r.opts.Profiler {
	case "", ProfilerWindow:
		return profile.Train(trainProg, profile.PathConfig{Depth: r.opts.PathDepth})
	case ProfilerBL:
		return profile.TrainBL(trainProg, profile.BLConfig{
			Depth:      r.opts.PathDepth,
			Iterations: r.opts.BLIterations,
		})
	default:
		return nil, fmt.Errorf("unknown profiler scheme %q", r.opts.Profiler)
	}
}

// CacheStats returns the runner's artifact-store counters: how many
// scheme builds it read from the store and how many it built. ok is
// false when no store is attached.
func (r *Runner) CacheStats() (stats CacheStats, ok bool) {
	if r.opts.ArtifactStore == nil {
		return CacheStats{}, false
	}
	return CacheStats{Compile: TierStats{DiskHits: r.diskHits.Load(), Builds: r.builds.Load()}}, true
}

// RunBenchmark measures b under every requested scheme. The schemes
// run on the runner's worker pool; after the first scheme error no
// further scheme starts, and the error of the first failing scheme in
// the given order is returned.
func (r *Runner) RunBenchmark(b *bench.Benchmark, schemes []Scheme) (*Result, error) {
	br, err := r.prepare(b)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %s: %w", b.Name, err)
	}

	// Fan the schemes out. Each worker only reads the shared builds and
	// frozen profiles; measurements land at their scheme's index, so
	// assembly order is independent of completion order.
	ms := make([]*Measurement, len(schemes))
	err = forEachLimited(len(schemes), r.opts.Parallelism, func(i int) error {
		m, err := r.runScheme(schemes[i], br)
		if err != nil {
			return fmt.Errorf("pipeline: %s/%s: %w", b.Name, schemes[i], err)
		}
		ms[i] = m
		return nil
	})
	if err != nil {
		return nil, err
	}

	// A copy of the statistics, not a pointer into the profiles: the
	// result must not keep the training profiles and trace alive once
	// the schemes are done.
	profStats := br.tp.Stats
	res := &Result{
		Name:          b.Name,
		Description:   b.Description,
		Category:      b.Category,
		OrigCodeBytes: br.test.CodeBytes(),
		ByScheme:      map[Scheme]*Measurement{},
		ProfStats:     &profStats,
	}
	for i, s := range schemes {
		res.ByScheme[s] = ms[i]
	}
	return res, nil
}

// benchRun is what one RunBenchmark call's scheme workers share: the
// pristine builds, the training profiles, the reference run, the
// builds' store fingerprints, the def-before-use baseline and the
// table of compiled procedures. Workers only read it; the table
// synchronizes itself.
type benchRun struct {
	train, test *ir.Program
	tp          *profile.TrainingProfiles
	ref         reference
	keys        benchKeys
	base        check.Baseline // nil when checking is off
	procs       *procTable
}

// prepare builds b's pristine programs, profiles the training build
// and records the reference run: everything its schemes share.
func (r *Runner) prepare(b *bench.Benchmark) (*benchRun, error) {
	br := &benchRun{train: b.Build(b.Train), test: b.Build(b.Test)}
	if err := checkSameShape(br.train, br.test); err != nil {
		return nil, fmt.Errorf("train/test builds diverge: %w", err)
	}

	// One training run feeds all profile consumers: batched path
	// profiling plus counter-fused edge and call-graph reconstruction,
	// exact counts of every event of the run.
	tp, err := r.train(br.train)
	if err != nil {
		return nil, fmt.Errorf("training run: %w", err)
	}
	br.tp = tp
	if r.check {
		vs := check.EdgeFlow(br.train, tp.Edge)
		vs = append(vs, check.PathFlow(br.train, tp.Path, tp.Edge)...)
		if tp.BL != nil {
			vs = append(vs, check.BLFlow(br.train, tp.BL, tp.Edge)...)
		}
		if err := check.Err("profile", vs); err != nil {
			return nil, err
		}
		// The def-before-use baseline is a function of the pristine
		// testing build alone, so compute it once here rather than
		// inside every scheme compile.
		br.base = check.BaselineOf(br.test)
	}

	// The reference run: the pristine testing build on the testing
	// input, recording its branch decisions. Every proved compile is
	// measured by walking it against that trace; its output is the
	// cross-check for a compile that must be executed instead. The
	// pristine build doubles as the reference program: nothing below
	// mutates it (compileWith clones before compacting), so no extra
	// build is needed.
	br.ref.res, br.ref.trace, err = profile.RecordRun(br.test)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}

	// Pristine-build fingerprints key the artifact store, so they are
	// computed only when one is attached, once per benchmark rather
	// than per scheme; the training fingerprint rides along in every
	// key because the profiles that feed formation, and the trace that
	// layout replays, derive from the training build.
	if r.opts.ArtifactStore != nil {
		br.keys.train = ir.Fingerprint(br.train)
		br.keys.test = ir.Fingerprint(br.test)
	}
	br.procs = newProcTable(len(br.test.Procs))
	return br, nil
}

// schemeConfig maps scheme s to its formation config over the given
// training profiles: the core defaults plus the scheme's method, unroll
// factor and P4e stop. formed is false for the BB baseline, which does
// not form superblocks; an unknown scheme is an error.
func schemeConfig(s Scheme, eprof *profile.EdgeProfile, pprof *profile.PathProfile) (cfg core.Config, formed bool, err error) {
	if s == SchemeBB {
		return core.Config{}, false, nil
	}
	cfg = core.DefaultConfig()
	cfg.Edge, cfg.Path = eprof, pprof
	switch s {
	case SchemeM4:
		cfg.Method = core.EdgeBased
		cfg.UnrollFactor = 4
	case SchemeM16:
		cfg.Method = core.EdgeBased
		cfg.UnrollFactor = 16
	case SchemeP4:
		cfg.Method = core.PathBased
	case SchemeP4e:
		cfg.Method = core.PathBased
		cfg.StopNonLoopAtFirstHead = true
	default:
		return core.Config{}, false, fmt.Errorf("unknown scheme %q", s)
	}
	return cfg, true, nil
}

// formConfig resolves the fully configured formation config for scheme
// s: schemeConfig, then the Form hook. ok is false for the BB baseline,
// which does not form superblocks.
func (r *Runner) formConfig(s Scheme, eprof *profile.EdgeProfile, pprof *profile.PathProfile) (cfg core.Config, ok bool, err error) {
	cfg, ok, err = schemeConfig(s, eprof, pprof)
	if !ok || err != nil {
		return cfg, ok, err
	}
	if r.opts.Form != nil {
		r.opts.Form(&cfg)
	}
	return cfg, true, nil
}

// compileWith forms prog under the config formConfig resolved for a
// scheme (haveCfg false selects the BB baseline, whose superblocks are
// its reachable basic blocks), then compacts each formed procedure and
// proves it against its pristine counterpart (compileProc): through
// procs, one benchmark's table of compiled procedures, when it is
// non-nil. prog is treated as read-only — formation clones internally
// and the BB baseline clones explicitly — so one shared build can feed
// concurrent scheme compiles. base is prog's precomputed
// def-before-use baseline (nil when checking is off).
func (r *Runner) compileWith(prog *ir.Program, base check.Baseline, cfg core.Config, haveCfg bool, procs *procTable) (*ir.Program, core.Stats, *sched.GapStats, *validate.Stats, error) {
	r.stats.compiles.Add(1)
	var formed *core.Result
	if haveCfg {
		t0 := time.Now()
		f, err := core.Form(prog, cfg)
		r.stats.formNS.Add(int64(time.Since(t0)))
		if err != nil {
			return nil, core.Stats{}, nil, nil, err
		}
		if r.check {
			t1 := time.Now()
			err := check.Err("form", check.Superblocks(f))
			r.stats.checkNS.Add(int64(time.Since(t1)))
			if err != nil {
				return nil, core.Stats{}, nil, nil, err
			}
		}
		formed = f
	} else {
		bb := ir.CloneProgram(prog)
		t0 := time.Now()
		formed = sched.BasicBlockSuperblocks(bb)
		r.stats.compactNS.Add(int64(time.Since(t0)))
	}
	bin := formed.Prog
	var deps sched.BlockDeps // the checked schedules' recorded edges, by block
	if r.check {
		deps = sched.BlockDeps{}
	}
	var gap *sched.GapStats
	if r.opts.Sched.Exact.Enabled {
		gap = &sched.GapStats{}
	}
	vstats := &validate.Stats{}
	var sc procScratch
	for i, p := range bin.Procs {
		pc, err := r.compileProc(procs, prog.Procs[i], p, formed.Superblocks[p.ID], &sc)
		if err != nil {
			return nil, core.Stats{}, nil, nil, err
		}
		bin.Procs[i] = pc.proc
		vstats.Count(pc.report)
		if gap != nil {
			gap.Add(pc.gap)
		}
		for j, d := range pc.deps {
			if d != nil {
				deps[pc.proc.Blocks[j]] = d
			}
		}
	}
	t2 := time.Now()
	err := ir.Verify(bin)
	r.stats.compactNS.Add(int64(time.Since(t2)))
	if err != nil {
		return nil, core.Stats{}, nil, nil, fmt.Errorf("sched: compaction produced invalid IR: %w", err)
	}
	if err := r.checkCompacted(base, bin, deps); err != nil {
		return nil, core.Stats{}, nil, nil, err
	}
	return bin, formed.Stats, gap, vstats, nil
}

// checkCompacted gates a compaction result: the emitted schedules must
// be legal for the machine, and the transformed program must not read
// any register the pristine input did not already possibly read
// undefined (renaming and allocation bugs surface exactly there). base
// is the pristine input's baseline, shared across every compile of the
// same build; deps is the compile's recorded dependence edges (nil
// falls back to recomputation).
func (r *Runner) checkCompacted(base check.Baseline, bin *ir.Program, deps sched.BlockDeps) error {
	if !r.check {
		return nil
	}
	t0 := time.Now()
	vs := check.SchedulesWithDeps(bin, r.opts.Sched.Machine, deps)
	vs = append(vs, check.DefBeforeUse(bin, base)...)
	r.stats.checkNS.Add(int64(time.Since(t0)))
	return check.Err("compact", vs)
}

// benchKeys carries one benchmark's pristine-build fingerprints to the
// scheme workers; it stays zero when no store is attached.
type benchKeys struct {
	train, test ir.Digest
}

// compileKey content-addresses one laid-out compile: the pristine
// build being compiled, the training build the formation profiles and
// the layout replay's branch trace derive from, the resolved formation
// config, the compaction options and machine model, and the profiling
// parameters, framed by ir.Encoder. Everything that can change the
// binary's bytes is in the key; names and schemes are not, so distinct
// configs that resolve to identical inputs share an entry. The v4
// domain string keeps keys apart from older stores' entries, whose
// program fingerprints were taken by a different encoding.
func (r *Runner) compileKey(progFP, trainFP ir.Digest, cfg core.Config, haveCfg bool) ir.Digest {
	e := ir.NewEncoder("pathsched-pipeline-compile-v4")
	e.Digest(progFP)
	e.Digest(trainFP)
	// Every compile is validated, and its entry carries the proof
	// stats a hit measures on (runScheme). The bit is constant now; it
	// stays so that entries validated by earlier runs keep their keys,
	// and entries built without validation, whose keys carry false,
	// are never read (contrast Check, which stores nothing on the entry
	// and stays out of the key).
	e.Bool(true)
	e.Bool(haveCfg) // false: the BB baseline, which has no formation config
	if haveCfg {
		e.Digest(cfg.Fingerprint())
	}
	e.Bool(r.opts.Sched.DisableRenaming)
	e.Bool(r.opts.Sched.DisableDCE)
	e.Bool(r.opts.Sched.DisableVN)
	e.I64(int64(r.opts.Sched.Machine.FuncUnits))
	e.I64(int64(r.opts.Sched.Machine.BranchPerCycle))
	e.Bool(r.opts.Sched.Machine.Realistic)
	// Exact-mode compiles produce different schedules (and carry gap
	// stats), so the normalized exact config is its own key dimension;
	// normalizing keeps explicit-default and zero configs colliding.
	ec := r.opts.Sched.Exact.Normalized()
	e.Bool(ec.Enabled)
	e.I64(int64(ec.NodeBudget))
	e.I64(int64(ec.SearchBudget))
	// The formation profiles are functions of (training build,
	// profiling scheme, path parameters); the build is already keyed
	// above, so scheme and parameters complete the profile identity.
	// Normalizing resolves zero fields to their defaults, so
	// explicit-default and default-by-omission configs share entries
	// (experiments' -depth 15 and an unset PathDepth, for one).
	if r.opts.Profiler == ProfilerBL {
		bc := profile.BLConfig{
			Depth:      r.opts.PathDepth,
			Iterations: r.opts.BLIterations,
		}.Normalized()
		e.Str(string(ProfilerBL))
		e.I64(int64(bc.Depth))
		e.I64(int64(bc.MaxBlocks))
		e.I64(int64(bc.Iterations))
	} else {
		pc := profile.PathConfig{Depth: r.opts.PathDepth}.Normalized()
		e.Str(string(ProfilerWindow))
		e.I64(int64(pc.Depth))
		e.I64(int64(pc.MaxBlocks))
	}
	return e.Sum()
}

// buildScheme returns scheme s's laid-out testing binary: it runs
// build, or, with an artifact store attached, reads the binary filed
// under the scheme's compile key and builds only on a miss.
func (r *Runner) buildScheme(s Scheme, br *benchRun) (*compiled, error) {
	cfg, haveCfg, err := r.formConfig(s, br.tp.Edge, br.tp.Path)
	if err != nil {
		return nil, err
	}
	build := func() (*compiled, error) {
		return r.build(cfg, haveCfg, br.train, br.test, br.tp.Trace, br.base, br.procs)
	}
	if r.opts.ArtifactStore == nil {
		return build()
	}
	return r.fromStore(r.compileKey(br.keys.test, br.keys.train, cfg, haveCfg), build)
}

// Build compiles prog under scheme s and lays it out, exactly as
// RunBenchmark builds every scheme it measures, for callers outside
// the pipeline (pathsched.Compile). tp holds the profiles of one
// training run of train, a program with prog's CFG shape (the same
// program on another input, or prog itself). With no branch trace in
// tp there is nothing to replay for layout weights, and the compile is
// returned unplaced. The result is the caller's own; no store sees it.
func (r *Runner) Build(s Scheme, train, prog *ir.Program, tp *profile.TrainingProfiles) (*ir.Program, error) {
	if tp.Trace != nil {
		if err := checkSameShape(train, prog); err != nil {
			return nil, fmt.Errorf("pipeline: profiled and compiled programs diverge: %w", err)
		}
	}
	cfg, haveCfg, err := r.formConfig(s, tp.Edge, tp.Path)
	if err != nil {
		return nil, err
	}
	var base check.Baseline
	if r.check {
		base = check.BaselineOf(prog)
	}
	c, err := r.build(cfg, haveCfg, train, prog, tp.Trace, base, nil)
	if err != nil {
		return nil, err
	}
	return c.bin, nil
}

// build is the one build every scheme runs: it compiles prog under
// the resolved formation config (haveCfg false selects the BB
// baseline), replays tr, the branch trace of train's training run,
// over the compile for its layout weights, and assigns the compile's
// code addresses from them. A nil tr leaves the compile unplaced.
// base is prog's def-before-use baseline (nil when checking is off).
func (r *Runner) build(cfg core.Config, haveCfg bool, train, prog *ir.Program, tr *profile.BranchTrace, base check.Baseline, procs *procTable) (*compiled, error) {
	bin, stats, gap, vstats, err := r.compileWith(prog, base, cfg, haveCfg, procs)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	if tr != nil {
		in, err := r.layoutWeights(train, bin, tr)
		if err != nil {
			return nil, err
		}
		layout.Assign(bin, in)
	}
	return &compiled{bin: bin, stats: stats, gap: gap, vstats: vstats}, nil
}

// layoutWeights replays the training run tr over bin, a compile of the
// testing build, and returns the weights layout.Assign consumes: the
// point profile the compiled training build would show on the training
// input (profile.Replay), without executing anything.
func (r *Runner) layoutWeights(trainProg, bin *ir.Program, tr *profile.BranchTrace) (layout.Input, error) {
	r.stats.layoutRuns.Add(1)
	t0 := time.Now()
	defer func() { r.stats.layoutNS.Add(int64(time.Since(t0))) }()
	prof, calls, err := profile.Replay(trainProg, bin, tr)
	if err != nil {
		return layout.Input{}, fmt.Errorf("layout replay: %w", err)
	}
	if r.check {
		if err := check.Err("layout", check.EdgeFlow(bin, prof)); err != nil {
			return layout.Input{}, err
		}
	}
	return layout.Input{CallCounts: calls, BlockFreq: prof.BlockFreq, EdgeFreq: prof.EdgeFreq}, nil
}

// runScheme builds and measures scheme s of br's benchmark. It only
// reads br's builds (compileWith clones), so concurrent scheme runs
// can share them.
func (r *Runner) runScheme(s Scheme, br *benchRun) (*Measurement, error) {
	c, err := r.buildScheme(s, br)
	if err != nil {
		return nil, err
	}
	return r.measurement(s, c, br)
}

// measurement measures c, scheme s's laid-out binary, on the testing
// input.
func (r *Runner) measurement(s Scheme, c *compiled, br *benchRun) (*Measurement, error) {
	var cache *machine.ICache
	var fetch interp.FetchSink // nil, not a typed nil, without a cache
	if r.opts.Cache != nil {
		cache = machine.NewICache(*r.opts.Cache)
		fetch = cache
	}
	got, err := r.measure(c, br.test, br.ref, fetch)
	if err != nil {
		return nil, err
	}

	m := &Measurement{
		Scheme:      s,
		Cycles:      got.Cycles,
		IdealCycles: got.Cycles - got.FetchStall,
		FetchStall:  got.FetchStall,
		DynInstrs:   got.DynInstrs,
		DynBranches: got.DynBranches,
		CodeBytes:   c.bin.CodeBytes(),
		SBEntries:   got.SBEntries,
		FormStats:   c.stats,
		Gap:         c.gap,
		Validation:  c.vstats,
	}
	if got.SBEntries > 0 {
		m.AvgBlocksExecuted = float64(got.SBExecuted) / float64(got.SBEntries)
		m.AvgSBSize = float64(got.SBSize) / float64(got.SBEntries)
	}
	if cache != nil {
		m.CacheAccesses = cache.Accesses()
		m.CacheMisses = cache.Misses()
		m.MissRate = cache.MissRate()
	}
	return m, nil
}

// reference is a benchmark's reference run: the pristine testing
// build's Result on the testing input and its branch decisions.
type reference struct {
	res   *interp.Result
	trace *profile.BranchTrace
}

// measure returns c's Result on the testing input, feeding fetch (nil:
// no I-cache). A compile whose every procedure the validator proved
// cannot branch other than its pristine input does, so its departures
// follow from the reference run's trace, and the walk
// (profile.Measure) yields exactly the Result executing it would; a
// store hit replays on the proof its entry records. A compile with a
// Bounded procedure carries no such proof: it is executed, and its
// output checked against the reference run's.
func (r *Runner) measure(c *compiled, testProg *ir.Program, ref reference, fetch interp.FetchSink) (*interp.Result, error) {
	t0 := time.Now()
	defer func() { r.stats.measureNS.Add(int64(time.Since(t0))) }()
	if c.vstats != nil && c.vstats.Bounded == 0 {
		r.stats.measureReplays.Add(1)
		got, err := profile.Measure(testProg, c.bin, ref.trace, fetch)
		if err != nil {
			return nil, fmt.Errorf("measurement replay: %w", err)
		}
		return got, nil
	}
	r.stats.measureRuns.Add(1)
	got, err := interp.Run(c.bin, interp.Config{Fetch: fetch})
	if err != nil {
		return nil, fmt.Errorf("measurement run: %w", err)
	}
	if err := sameBehaviour(ref.res, got); err != nil {
		return nil, fmt.Errorf("transformed program diverged: %w", err)
	}
	return got, nil
}

// RunSuite measures every named benchmark (nil means the whole suite).
// Benchmarks are dispatched across a bounded worker pool and results
// come back in suite order regardless of which benchmark finished
// first. After the first failure no further benchmark starts, and the
// error of the first failing benchmark in suite order is returned.
func (r *Runner) RunSuite(names []string, schemes []Scheme) ([]*Result, error) {
	if names == nil {
		names = bench.Names()
	}
	bs := make([]*bench.Benchmark, len(names))
	for i, n := range names {
		if bs[i] = bench.ByName(n); bs[i] == nil {
			return nil, fmt.Errorf("pipeline: unknown benchmark %q", n)
		}
	}
	out := make([]*Result, len(bs))
	err := forEachLimited(len(bs), r.opts.Parallelism, func(i int) error {
		res, err := r.RunBenchmark(bs[i], schemes)
		if err != nil {
			return err
		}
		out[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// checkSameShape verifies two builds of a benchmark have identical CFG
// structure (main, procedures, block counts, and each terminator's
// opcode, targets and callee), the property profile transfer relies
// on. Opcodes alone are not enough: two switches over differently sized
// jump tables have the same terminator opcode but different
// out-degrees, and layout replay walks the testing build's compile
// with the training build's terminators, so every successor id and
// every callee must agree as well.
func checkSameShape(a, b *ir.Program) error {
	if len(a.Procs) != len(b.Procs) {
		return fmt.Errorf("proc count %d vs %d", len(a.Procs), len(b.Procs))
	}
	if a.Main != b.Main {
		return fmt.Errorf("main proc %d vs %d", a.Main, b.Main)
	}
	for i := range a.Procs {
		pa, pb := a.Procs[i], b.Procs[i]
		if len(pa.Blocks) != len(pb.Blocks) {
			return fmt.Errorf("proc %s: block count %d vs %d", pa.Name, len(pa.Blocks), len(pb.Blocks))
		}
		for j := range pa.Blocks {
			ta := pa.Blocks[j].Terminator()
			tb := pb.Blocks[j].Terminator()
			if ta.Op != tb.Op {
				return fmt.Errorf("proc %s block b%d: terminator %v vs %v", pa.Name, j, ta.Op, tb.Op)
			}
			if len(ta.Targets) != len(tb.Targets) {
				return fmt.Errorf("proc %s block b%d: %v successor count %d vs %d",
					pa.Name, j, ta.Op, len(ta.Targets), len(tb.Targets))
			}
			for k := range ta.Targets {
				if ta.Targets[k] != tb.Targets[k] {
					return fmt.Errorf("proc %s block b%d: %v target %d is b%d vs b%d",
						pa.Name, j, ta.Op, k, ta.Targets[k], tb.Targets[k])
				}
			}
			if ta.Op == ir.OpCall && ta.Callee != tb.Callee {
				return fmt.Errorf("proc %s block b%d: call to proc %d vs %d", pa.Name, j, ta.Callee, tb.Callee)
			}
		}
	}
	return nil
}

// sameBehaviour checks observable equivalence of two runs.
func sameBehaviour(a, b *interp.Result) error {
	if a.Ret != b.Ret {
		return fmt.Errorf("return value %d vs %d", a.Ret, b.Ret)
	}
	if len(a.Output) != len(b.Output) {
		return fmt.Errorf("output length %d vs %d", len(a.Output), len(b.Output))
	}
	for i := range a.Output {
		if a.Output[i] != b.Output[i] {
			return fmt.Errorf("output[%d] = %d vs %d", i, a.Output[i], b.Output[i])
		}
	}
	return nil
}
