package main

import (
	"fmt"
	"runtime"
	"time"

	"pathsched/internal/bench"
	"pathsched/internal/check"
	"pathsched/internal/core"
	"pathsched/internal/interp"
	"pathsched/internal/ir"
	"pathsched/internal/layout"
	"pathsched/internal/machine"
	"pathsched/internal/pipeline"
	"pathsched/internal/profile"
	"pathsched/internal/sched"
	"pathsched/internal/validate"
)

// The tracer re-drives the pipeline's uncached serial path
// (pipeline.Options{DisableProfileCache: true, Parallelism: 1}) stage
// by stage through each layer's public functions, recording a span
// around every call. It always runs the check and validate gates, which
// never change results, so every workload reports every layer. The
// harness's drift guard compares its measurements with an end-to-end
// child's, so a pipeline change it does not mirror fails the run.

// Leaf span names: one per timed layer call. A layer's per-layer
// metric is its name with "_s" appended.
var leafLayers = []string{
	"bench.build",
	"profile.train",
	"profile.point",
	"interp.reference",
	"interp.measure",
	"core.form",
	"sched.compact",
	"layout.assign",
	"ir.clone",
	"check.gate",
	"validate.equiv",
}

// Interior span names.
const (
	spanWorkload = "workload"
	spanBench    = "bench"
	spanScheme   = "scheme"
	spanUntraced = "untraced" // an untraced RunBenchmark, for the overhead
)

// span is one interval of the traced run. Spans form a tree (workload →
// benchmark → scheme → stage); every span under one benchmark carries
// that benchmark's id.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for the root
	Bench  int    `json:"bench"`  // -1 for the root
	Name   string `json:"name"`
	Label  string `json:"label,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the traced run ends.
type recorder struct {
	t0    time.Time
	spans []span
}

func (r *recorder) begin(parent, bench int, name, label string) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Bench: bench, Name: name, Label: label,
		Start: int64(time.Since(r.t0))})
	return id
}

func (r *recorder) end(id int) { r.spans[id].End = int64(time.Since(r.t0)) }

// leaf runs fn inside a leaf span.
func (r *recorder) leaf(parent, bench int, name string, fn func() error) error {
	id := r.begin(parent, bench, name, "")
	err := fn()
	r.end(id)
	return err
}

// drift is the part of a measurement the drift guard compares.
type drift struct {
	Bench       string          `json:"bench"`
	Scheme      pipeline.Scheme `json:"scheme"`
	Cycles      int64           `json:"cycles"`
	IdealCycles int64           `json:"ideal_cycles"`
	DynInstrs   int64           `json:"dyn_instrs"`
	CodeBytes   int64           `json:"code_bytes"`
	CacheMisses int64           `json:"cache_misses"`
}

func driftOf(bench string, m *pipeline.Measurement) drift {
	return drift{Bench: bench, Scheme: m.Scheme, Cycles: m.Cycles, IdealCycles: m.IdealCycles,
		DynInstrs: m.DynInstrs, CodeBytes: m.CodeBytes, CacheMisses: m.CacheMisses}
}

// traceOutput is a traced child's report.
type traceOutput struct {
	Spans        []span             `json:"spans"`
	Counts       map[string]float64 `json:"counts"` // per-layer count metrics
	Measurements []drift            `json:"measurements"`
}

// tracer is the state of one traced run.
type tracer struct {
	w      workload
	rec    recorder
	root   int
	ic     machine.ICacheConfig
	so     sched.Options
	counts map[string]float64
	meas   []drift
}

// runTraced runs the tracer over bs. Before or after each
// benchmark, alternating, an untraced RunBenchmark of the same inputs
// and gates gives the tracing overhead.
func runTraced(w workload, bs []*bench.Benchmark) (*traceOutput, error) {
	t := &tracer{
		w:      w,
		rec:    recorder{t0: time.Now()},
		ic:     machine.DefaultICache(),
		so:     sched.Options{Machine: machine.Default(), Parallelism: 1},
		counts: map[string]float64{},
	}
	opts := w.options(1)
	opts.DisableProfileCache = true
	opts.Check, opts.Validate = pipeline.CheckOn, pipeline.ValidateOn
	untraced := pipeline.NewRunner(opts)

	t.root = t.rec.begin(-1, -1, spanWorkload, w.name)
	for i, b := range bs {
		passes := []func() error{
			func() error {
				if err := t.bench(i, b); err != nil {
					return fmt.Errorf("%s: %w", b.Name, err)
				}
				return nil
			},
			func() error {
				id := t.rec.begin(t.root, i, spanUntraced, b.Name)
				defer t.rec.end(id)
				_, err := untraced.RunBenchmark(b, pipeline.AllSchemes())
				return err
			},
		}
		if i%2 == 1 {
			passes[0], passes[1] = passes[1], passes[0]
		}
		for _, pass := range passes {
			// Each pass starts from a collected heap, so neither pays
			// for the other's garbage.
			runtime.GC()
			if err := pass(); err != nil {
				return nil, err
			}
		}
	}
	t.rec.end(t.root)
	return &traceOutput{Spans: t.rec.spans, Counts: t.counts, Measurements: t.meas}, nil
}

// bench mirrors pipeline.Runner.RunBenchmark.
func (t *tracer) bench(id int, b *bench.Benchmark) error {
	bs := t.rec.begin(t.root, id, spanBench, b.Name)
	defer t.rec.end(bs)
	leaf := func(name string, fn func() error) error { return t.rec.leaf(bs, id, name, fn) }

	var trainProg, testProg *ir.Program
	leaf("bench.build", func() error {
		trainProg, testProg = b.Build(b.Train), b.Build(b.Test)
		return nil
	})
	var tp *profile.TrainingProfiles
	if err := leaf("profile.train", func() (err error) {
		if t.w.profiler == pipeline.ProfilerBL {
			tp, err = profile.TrainBL(trainProg, profile.BLConfig{})
		} else {
			tp, err = profile.Train(trainProg, profile.PathConfig{})
		}
		return err
	}); err != nil {
		return fmt.Errorf("training run: %w", err)
	}
	for _, a := range tp.Stats.Automaton {
		t.counts["profile.path_nodes"] += float64(a.Nodes)
	}
	t.counts["profile.batches"] += float64(tp.Stats.Batches)

	var bases [2]check.Baseline // train, test
	if err := leaf("check.gate", func() error {
		vs := check.EdgeFlow(trainProg, tp.Edge)
		vs = append(vs, check.PathFlow(trainProg, tp.Path, tp.Edge)...)
		if tp.BL != nil {
			vs = append(vs, check.BLFlow(trainProg, tp.BL, tp.Edge)...)
		}
		bases = [2]check.Baseline{check.BaselineOf(trainProg), check.BaselineOf(testProg)}
		return check.Err("profile", vs)
	}); err != nil {
		return err
	}
	var ref *interp.Result
	if err := leaf("interp.reference", func() (err error) {
		ref, err = interp.Run(testProg, interp.Config{})
		return err
	}); err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	for _, s := range pipeline.AllSchemes() {
		if err := t.scheme(bs, id, b.Name, s, [2]*ir.Program{trainProg, testProg}, bases, tp, ref); err != nil {
			return fmt.Errorf("%s: %w", s, err)
		}
	}
	return nil
}

// scheme mirrors the pipeline's uncached runScheme: compile the
// training and testing builds, gather layout weights from the formed
// training build, lay out and measure the testing build.
func (t *tracer) scheme(parent, id int, name string, s pipeline.Scheme, progs [2]*ir.Program, bases [2]check.Baseline, tp *profile.TrainingProfiles, ref *interp.Result) error {
	ss := t.rec.begin(parent, id, spanScheme, string(s))
	defer t.rec.end(ss)
	leaf := func(name string, fn func() error) error { return t.rec.leaf(ss, id, name, fn) }

	cfg, formed := formConfig(s, tp)
	trainBin, _, _, err := t.compile(ss, id, progs[0], bases[0], cfg, formed)
	if err != nil {
		return fmt.Errorf("train compile: %w", err)
	}
	testBin, fstats, vstats, err := t.compile(ss, id, progs[1], bases[1], cfg, formed)
	if err != nil {
		return fmt.Errorf("test compile: %w", err)
	}
	t.counts["core.traces"] += float64(fstats.Traces)
	t.counts["core.tail_dups"] += float64(fstats.TailDups)
	t.counts["core.enlarge_copies"] += float64(fstats.EnlargeCopies)
	t.counts["validate.proved"] += float64(vstats.Proved)
	t.counts["validate.bounded"] += float64(vstats.Bounded)

	var prof *profile.EdgeProfile
	var calls map[[2]ir.ProcID]int64
	if err := leaf("profile.point", func() (err error) {
		prof, calls, err = profile.PointProfiles(trainBin)
		return err
	}); err != nil {
		return fmt.Errorf("layout training run: %w", err)
	}
	if err := leaf("check.gate", func() error {
		return check.Err("layout", check.EdgeFlow(trainBin, prof))
	}); err != nil {
		return err
	}
	leaf("layout.assign", func() error {
		layout.Assign(testBin, layout.Input{CallCounts: calls, BlockFreq: prof.BlockFreq, EdgeFreq: prof.EdgeFreq})
		return nil
	})
	cache := machine.NewICache(t.ic)
	var got *interp.Result
	if err := leaf("interp.measure", func() (err error) {
		got, err = interp.EngineFor(testBin).Run(interp.Config{Fetch: cache})
		return err
	}); err != nil {
		return fmt.Errorf("measurement run: %w", err)
	}
	if !sameBehaviour(ref, got) {
		return fmt.Errorf("transformed program diverged from the reference run")
	}
	t.counts["interp.measure_minstr"] += float64(got.DynInstrs) / 1e6
	t.counts["machine.icache_accesses"] += float64(cache.Accesses())
	t.counts["machine.icache_misses"] += float64(cache.Misses())
	t.meas = append(t.meas, drift{Bench: name, Scheme: s, Cycles: got.Cycles, IdealCycles: got.Cycles - got.FetchStall,
		DynInstrs: got.DynInstrs, CodeBytes: testBin.CodeBytes(), CacheMisses: cache.Misses()})
	return nil
}

// compile mirrors the pipeline's checked, validated compile of prog;
// formed false selects the basic-block baseline.
func (t *tracer) compile(parent, id int, prog *ir.Program, base check.Baseline, cfg core.Config, formed bool) (*ir.Program, core.Stats, validate.Stats, error) {
	leaf := func(name string, fn func() error) error { return t.rec.leaf(parent, id, name, fn) }
	so := t.so
	so.RecordDeps = sched.BlockDeps{}
	var bin *ir.Program
	var stats core.Stats
	if formed {
		var res *core.Result
		if err := leaf("core.form", func() (err error) {
			res, err = core.Form(prog, cfg)
			return err
		}); err != nil {
			return nil, stats, validate.Stats{}, err
		}
		if err := leaf("check.gate", func() error {
			return check.Err("form", check.Superblocks(res))
		}); err != nil {
			return nil, stats, validate.Stats{}, err
		}
		if err := leaf("sched.compact", func() error { return sched.Compact(res, so) }); err != nil {
			return nil, stats, validate.Stats{}, err
		}
		bin, stats = res.Prog, res.Stats
	} else {
		leaf("ir.clone", func() error {
			bin = ir.CloneProgram(prog)
			return nil
		})
		if err := leaf("sched.compact", func() error { return sched.CompactBasicBlocks(bin, so) }); err != nil {
			return nil, stats, validate.Stats{}, err
		}
	}
	if err := leaf("check.gate", func() error {
		vs := check.SchedulesWithDeps(bin, so.Machine, so.RecordDeps)
		return check.Err("compact", append(vs, check.DefBeforeUse(bin, base)...))
	}); err != nil {
		return nil, stats, validate.Stats{}, err
	}
	var rep *validate.Report
	if err := leaf("validate.equiv", func() error {
		var vs []check.Violation
		rep, vs = check.Equiv(prog, bin, validate.Options{})
		return check.Err("validate", vs)
	}); err != nil {
		return nil, stats, validate.Stats{}, err
	}
	return bin, stats, rep.Stats, nil
}

// formConfig mirrors the pipeline's scheme configuration at
// Parallelism 1; formed is false for the basic-block baseline.
func formConfig(s pipeline.Scheme, tp *profile.TrainingProfiles) (cfg core.Config, formed bool) {
	if s == pipeline.SchemeBB {
		return core.Config{}, false
	}
	cfg = core.DefaultConfig()
	cfg.Edge, cfg.Path = tp.Edge, tp.Path
	cfg.Parallelism = 1
	switch s {
	case pipeline.SchemeM4:
		cfg.Method, cfg.UnrollFactor = core.EdgeBased, 4
	case pipeline.SchemeM16:
		cfg.Method, cfg.UnrollFactor = core.EdgeBased, 16
	case pipeline.SchemeP4:
		cfg.Method = core.PathBased
	case pipeline.SchemeP4e:
		cfg.Method, cfg.StopNonLoopAtFirstHead = core.PathBased, true
	}
	return cfg, true
}

func sameBehaviour(a, b *interp.Result) bool {
	if a.Ret != b.Ret || len(a.Output) != len(b.Output) {
		return false
	}
	for i := range a.Output {
		if a.Output[i] != b.Output[i] {
			return false
		}
	}
	return true
}

// layerTimes folds a span tree into per-layer self times (a span's
// duration minus what its children cover), the share of traced wall
// time the leaf spans cover, and traced and untraced wall time.
func layerTimes(spans []span) (self map[string]float64, coverage, traced, untraced float64) {
	children := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	self = map[string]float64{}
	for i, s := range spans {
		self[s.Name] += float64(s.End-s.Start-children[i]) / 1e9
		switch s.Name {
		case spanBench:
			traced += float64(s.End-s.Start) / 1e9
		case spanUntraced:
			untraced += float64(s.End-s.Start) / 1e9
		}
	}
	var leaves float64
	for _, l := range leafLayers {
		leaves += self[l]
	}
	if traced > 0 {
		coverage = leaves / traced
	}
	return self, coverage, traced, untraced
}
