// Package pipeline wires the full system together, reproducing the
// paper's methodology (§3): profile the training input (edge + general
// path + call graph in one run), form superblocks with the scheme
// under study, compact them for the experimental VLIW, place
// procedures Pettis–Hansen style, and measure the testing input by
// direct execution — cycle counts with and without the 32KB
// direct-mapped instruction cache.
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
// compiled program is executed for layout. Compiling, replaying and
// laying out are one build step, and its product — the laid-out
// binary — is what a scheme measures.
//
// Because formation is deterministic given an immutable frozen profile,
// the per-benchmark and per-scheme measurements are independent of one
// another: RunSuite fans benchmarks out across a bounded worker pool,
// and RunBenchmark fans the schemes out likewise. Frozen profiles
// (EdgeProfile, PathProfile, BranchTrace) and pristine builds are
// shared read-only across workers; a scheme's build mutates only the
// binary it is producing, which nobody else sees until it is finished
// and laid out, and its measurement run (decoded engine, cache model)
// is private to its worker. Results are assembled in input order
// regardless of completion order, so parallel and serial runs produce
// identical output. Options.Parallelism controls the pool (1 reproduces the
// historical serial order).
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
	// disables it otherwise, so every test run validates the pipeline
	// at no cost to production measurement runs.
	CheckAuto CheckMode = iota
	// CheckOn always checks.
	CheckOn
	// CheckOff never checks.
	CheckOff
)

// ValidateMode selects whether the symbolic translation validator
// (internal/validate) gates each compile.
type ValidateMode int

const (
	// ValidateAuto (the zero value) enables validation under `go test`
	// and disables it otherwise, mirroring CheckAuto: every test run
	// proves each compile semantically equivalent to its pristine input
	// at no cost to production measurement runs.
	ValidateAuto ValidateMode = iota
	// ValidateOn always validates.
	ValidateOn
	// ValidateOff never validates.
	ValidateOff
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
	// Validate gates every compile with the symbolic translation
	// validator (check.Equiv): each compiled procedure must prove
	// semantically equivalent to its pristine input, with budget
	// fallbacks reported as explicit Bounded counts in
	// Measurement.Validation. Unlike Check, validation enters the
	// compile key: a store entry compiled without validation carries no
	// proof or stats, so validated and unvalidated runs must not share
	// entries.
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
	// measured build's compile, present only when Options.Validate
	// resolves on. A binary read from the artifact store carries the
	// stats recorded when it was built and validated. Excluded from
	// JSON output, which is pinned to measurement data.
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
	opts     Options
	check    bool // resolved CheckMode
	validate bool // resolved ValidateMode
	stats    stageStats
	// diskHits and builds count the scheme builds read from and built
	// for ArtifactStore (see CacheStats).
	diskHits, builds atomic.Int64
}

// stageStats accumulates wall time per compile stage across all of a
// runner's (possibly concurrent) compiles.
type stageStats struct {
	formNS, compactNS, checkNS, validateNS, layoutNS atomic.Int64
	compiles, layoutRuns                             atomic.Int64
}

// CompileStats reports where a runner's compile time went, summed over
// every compile it performed (concurrent stage times add up, so the
// totals can exceed wall time on parallel runs). Surfaced by
// cmd/experiments -compilestats.
type CompileStats struct {
	Compiles   int64 // compileWith invocations (store misses only, with a store)
	LayoutRuns int64 // layout-weight replays (profile.Replay): one per compile

	FormSeconds     float64 // superblock formation
	CompactSeconds  float64 // sched.Compact / CompactBasicBlocks
	CheckSeconds    float64 // semantic checker gates (0 when checking is off)
	ValidateSeconds float64 // translation validation (0 when validation is off)
	LayoutSeconds   float64 // layout-weight replays
}

// CompileStats returns the per-stage compile wall-time counters
// accumulated so far.
func (r *Runner) CompileStats() CompileStats {
	return CompileStats{
		Compiles:        r.stats.compiles.Load(),
		LayoutRuns:      r.stats.layoutRuns.Load(),
		FormSeconds:     float64(r.stats.formNS.Load()) / 1e9,
		CompactSeconds:  float64(r.stats.compactNS.Load()) / 1e9,
		CheckSeconds:    float64(r.stats.checkNS.Load()) / 1e9,
		ValidateSeconds: float64(r.stats.validateNS.Load()) / 1e9,
		LayoutSeconds:   float64(r.stats.layoutNS.Load()) / 1e9,
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
	switch opts.Validate {
	case ValidateOn:
		r.validate = true
	case ValidateOff:
		r.validate = false
	default:
		r.validate = testing.Testing()
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
	trainProg := b.Build(b.Train)
	testProg := b.Build(b.Test)
	if err := checkSameShape(trainProg, testProg); err != nil {
		return nil, fmt.Errorf("pipeline: %s: train/test builds diverge: %w", b.Name, err)
	}

	// One training run feeds all profile consumers: batched path
	// profiling plus counter-fused edge and call-graph reconstruction,
	// exact counts of every event of the run.
	tp, err := r.train(trainProg)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %s: training run: %w", b.Name, err)
	}
	eprof, pprof := tp.Edge, tp.Path
	var base check.Baseline
	if r.check {
		vs := check.EdgeFlow(trainProg, eprof)
		vs = append(vs, check.PathFlow(trainProg, pprof, eprof)...)
		if tp.BL != nil {
			vs = append(vs, check.BLFlow(trainProg, tp.BL, eprof)...)
		}
		if err := check.Err("profile", vs); err != nil {
			return nil, fmt.Errorf("pipeline: %s: %w", b.Name, err)
		}
		// The def-before-use baseline is a function of the pristine
		// testing build alone, so compute it once here rather than
		// inside every scheme compile.
		base = check.BaselineOf(testProg)
	}

	// Reference output for the correctness cross-check. The pristine
	// testing build doubles as the reference program: nothing below
	// mutates it (compileWith clones before compacting), so no extra
	// build is needed.
	ref, err := interp.Run(testProg, interp.Config{})
	if err != nil {
		return nil, fmt.Errorf("pipeline: %s: reference run: %w", b.Name, err)
	}

	// Pristine-build fingerprints key the artifact store, so they are
	// computed only when one is attached, once per benchmark rather
	// than per scheme; the training fingerprint rides along in every
	// key because the profiles that feed formation, and the trace that
	// layout replays, derive from the training build.
	var keys benchKeys
	if r.opts.ArtifactStore != nil {
		keys.train = ir.Fingerprint(trainProg)
		keys.test = ir.Fingerprint(testProg)
	}

	// Fan the schemes out. Each worker only reads the shared builds and
	// frozen profiles; measurements land at their scheme's index, so
	// assembly order is independent of completion order.
	ms := make([]*Measurement, len(schemes))
	err = forEachLimited(len(schemes), r.opts.Parallelism, func(i int) error {
		m, err := r.runScheme(schemes[i], trainProg, testProg, tp, ref, keys, base)
		if err != nil {
			return fmt.Errorf("pipeline: %s/%s: %w", b.Name, schemes[i], err)
		}
		ms[i] = m
		return nil
	})
	if err != nil {
		return nil, err
	}

	// A copy of the statistics, not a pointer into tp: the result must
	// not keep the training profiles and trace alive once the schemes
	// are done.
	profStats := tp.Stats
	res := &Result{
		Name:          b.Name,
		Description:   b.Description,
		Category:      b.Category,
		OrigCodeBytes: testProg.CodeBytes(),
		ByScheme:      map[Scheme]*Measurement{},
		ProfStats:     &profStats,
	}
	for i, s := range schemes {
		res.ByScheme[s] = ms[i]
	}
	return res, nil
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

// compileWith forms and compacts prog under the config formConfig
// resolved for a scheme (haveCfg false selects the BB baseline). prog
// is treated as read-only — formation clones internally and the BB
// baseline clones explicitly — so one shared build can feed concurrent
// scheme compiles. base is prog's precomputed def-before-use baseline
// (nil when checking is off).
func (r *Runner) compileWith(prog *ir.Program, base check.Baseline, cfg core.Config, haveCfg bool) (*ir.Program, core.Stats, *sched.GapStats, *validate.Stats, error) {
	r.stats.compiles.Add(1)
	// Checked compiles record the scheduler's own dependence edges so
	// the schedule check consumes them instead of recomputing every
	// block's dependences. The options copy keeps the recording map
	// private to this compile (r.opts.Sched is shared across workers).
	so := r.opts.Sched
	if r.check {
		so.RecordDeps = sched.BlockDeps{}
	}
	var gap *sched.GapStats
	if so.Exact.Enabled {
		// Gap accounting is private to this compile for the same reason
		// the recording map is.
		gap = &sched.GapStats{}
		so.GapStats = gap
	}
	if !haveCfg {
		bb := ir.CloneProgram(prog)
		t0 := time.Now()
		err := sched.CompactBasicBlocks(bb, so)
		r.stats.compactNS.Add(int64(time.Since(t0)))
		if err != nil {
			return nil, core.Stats{}, nil, nil, err
		}
		if err := r.checkCompacted(base, bb, so.RecordDeps); err != nil {
			return nil, core.Stats{}, nil, nil, err
		}
		vstats, err := r.validateCompiled(prog, bb)
		if err != nil {
			return nil, core.Stats{}, nil, nil, err
		}
		return bb, core.Stats{}, gap, vstats, nil
	}
	t0 := time.Now()
	formed, err := core.Form(prog, cfg)
	r.stats.formNS.Add(int64(time.Since(t0)))
	if err != nil {
		return nil, core.Stats{}, nil, nil, err
	}
	if r.check {
		t1 := time.Now()
		err := check.Err("form", check.Superblocks(formed))
		r.stats.checkNS.Add(int64(time.Since(t1)))
		if err != nil {
			return nil, core.Stats{}, nil, nil, err
		}
	}
	t2 := time.Now()
	err = sched.Compact(formed, so)
	r.stats.compactNS.Add(int64(time.Since(t2)))
	if err != nil {
		return nil, core.Stats{}, nil, nil, err
	}
	if err := r.checkCompacted(base, formed.Prog, so.RecordDeps); err != nil {
		return nil, core.Stats{}, nil, nil, err
	}
	vstats, err := r.validateCompiled(prog, formed.Prog)
	if err != nil {
		return nil, core.Stats{}, nil, nil, err
	}
	return formed.Prog, formed.Stats, gap, vstats, nil
}

// validateCompiled gates a compile with the symbolic translation
// validator: every procedure of bin must prove semantically equivalent
// to its pristine counterpart in prog, or the compile fails the same
// way a structural check failure does. Budget-bounded procedures are
// not failures — they fall back to the structural gates above and are
// tallied explicitly in the returned stats.
func (r *Runner) validateCompiled(prog, bin *ir.Program) (*validate.Stats, error) {
	if !r.validate {
		return nil, nil
	}
	t0 := time.Now()
	rep, vs := check.Equiv(prog, bin, validate.Options{})
	r.stats.validateNS.Add(int64(time.Since(t0)))
	if err := check.Err("validate", vs); err != nil {
		return nil, err
	}
	stats := rep.Stats
	return &stats, nil
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
	// Validation never changes the compiled bytes, but validated
	// entries carry proof stats that unvalidated ones lack, so the two
	// kinds must not share store entries (contrast Check, which stores
	// nothing on the entry and stays out of the key).
	e.Bool(r.validate)
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

// buildScheme returns a scheme's laid-out testing binary: it runs
// build, or, with an artifact store attached, reads the binary filed
// under the scheme's compile key and builds only on a miss. base is
// the testing build's def-before-use baseline (nil when checking is
// off).
func (r *Runner) buildScheme(s Scheme, trainProg, testProg *ir.Program, tp *profile.TrainingProfiles, keys benchKeys, base check.Baseline) (*compiled, error) {
	cfg, haveCfg, err := r.formConfig(s, tp.Edge, tp.Path)
	if err != nil {
		return nil, err
	}
	build := func() (*compiled, error) {
		return r.build(cfg, haveCfg, trainProg, testProg, tp.Trace, base)
	}
	if r.opts.ArtifactStore == nil {
		return build()
	}
	return r.fromStore(r.compileKey(keys.test, keys.train, cfg, haveCfg), build)
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
	c, err := r.build(cfg, haveCfg, train, prog, tp.Trace, base)
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
func (r *Runner) build(cfg core.Config, haveCfg bool, train, prog *ir.Program, tr *profile.BranchTrace, base check.Baseline) (*compiled, error) {
	bin, stats, gap, vstats, err := r.compileWith(prog, base, cfg, haveCfg)
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

// runScheme builds and measures one scheme. trainProg and testProg
// are the benchmark's shared pristine builds and tp its training
// profiles; runScheme only reads them (compileWith clones), so
// concurrent scheme runs can share them.
func (r *Runner) runScheme(s Scheme, trainProg, testProg *ir.Program, tp *profile.TrainingProfiles, ref *interp.Result, keys benchKeys, base check.Baseline) (*Measurement, error) {
	c, err := r.buildScheme(s, trainProg, testProg, tp, keys, base)
	if err != nil {
		return nil, err
	}

	// Measurement run, straight on the binary (the run decodes it and
	// keeps nothing on it).
	cfg := interp.Config{}
	var cache *machine.ICache
	if r.opts.Cache != nil {
		cache = machine.NewICache(*r.opts.Cache)
		cfg.Fetch = cache
	}
	got, err := interp.Run(c.bin, cfg)
	if err != nil {
		return nil, fmt.Errorf("measurement run: %w", err)
	}
	if err := sameBehaviour(ref, got); err != nil {
		return nil, fmt.Errorf("transformed program diverged: %w", err)
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
