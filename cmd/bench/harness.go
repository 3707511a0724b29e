package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"pathsched/internal/pipeline"
)

// Set-up is measured several times per run and reported as the median
// time until a child is ready (it has built its inputs) plus the median
// preparation time. Probes are cheap, so there are many; only
// store-warm prepares, and each preparation is a full store-cold run.
const (
	setupProbes = 15
	setupPreps  = 2
)

// minCoverage is the share of traced wall time leaf spans must cover.
const minCoverage = 0.98

var nSchemes = len(pipeline.AllSchemes())

// harness runs workloads and collects their reports.
type harness struct {
	seed    uint64
	runs    int           // minimum timed children per workload
	seconds time.Duration // keep starting timed children until this much time has passed
	bench   []string      // nil: the whole suite
	work    string        // scratch directory
	seq     int           // names scratch paths
}

// path returns a fresh path under the scratch directory.
func (h *harness) path(prefix string) string {
	h.seq++
	return filepath.Join(h.work, fmt.Sprintf("%s-%d", prefix, h.seq))
}

func (h *harness) job(mode string, w workload, storeDir string) job {
	j := job{Mode: mode, Workload: w.name, Seed: h.seed, Bench: h.bench, Store: storeDir}
	if mode != modeProbe {
		j.Out = h.path(mode) + ".json"
	}
	return j
}

// workload measures w: its end-to-end metrics unless trace is 1, its
// per-layer metrics unless trace is 0.
func (h *harness) workload(w workload, trace int) *workloadReport {
	rep := &workloadReport{Name: w.name, shared: w.sharesResults()}
	bs, err := w.benchmarks(h.bench, h.seed)
	if err != nil {
		rep.problem("%v", err)
		return rep
	}
	rep.nBench = len(bs)
	if trace != 1 {
		h.endToEnd(w, rep)
	}
	if trace != 0 {
		h.perLayer(w, rep)
	}
	return rep
}

// timed runs one timed child of w over storeDir (st says what the
// store should hold) and folds its outcome into rep. out is nil when
// the child failed.
func (h *harness) timed(w workload, st storeMode, storeDir string, rep *workloadReport) (childRun, *timedOutput) {
	j := h.job(modeTimed, w, storeDir)
	out := &timedOutput{}
	run, err := spawn(j, timedProcs, out)
	os.Remove(j.Out)
	if err == nil {
		rep.sameInputs(run)
	}
	if !rep.account(out, err, st) {
		return run, nil
	}
	return run, out
}

// endToEnd measures w's set-up, then runs timed children until both
// h.runs and h.seconds are used up.
func (h *harness) endToEnd(w workload, rep *workloadReport) {
	var ready, prep []float64
	var warmDirs []string
	if w.store == storeWarm {
		for i := 0; i < setupPreps; i++ {
			dir := h.path("store")
			if run, out := h.timed(w, storeCold, dir, rep); out != nil {
				prep = append(prep, run.elapsedS)
				warmDirs = append(warmDirs, dir)
			}
			defer os.RemoveAll(dir)
		}
		if len(warmDirs) == 0 {
			rep.problem("no store was populated")
			return
		}
	}
	// dir returns the store of w's i-th child; a fresh one on
	// store-cold, which the caller removes afterwards.
	dir := func(i int) string {
		switch w.store {
		case storeCold:
			return h.path("store")
		case storeWarm:
			return warmDirs[i%len(warmDirs)]
		}
		return ""
	}
	for i := 0; i < setupProbes; i++ {
		d := dir(i)
		run, err := spawn(h.job(modeProbe, w, d), timedProcs, nil)
		if w.store == storeCold {
			os.RemoveAll(d)
		}
		if err != nil {
			rep.problem("%v", err)
			continue
		}
		rep.sameInputs(run)
		ready = append(ready, run.readyS)
	}

	var wall, cpu, rss, p4m4, code []float64
	start := time.Now()
	for i := 0; i < h.runs || time.Since(start) < h.seconds; i++ {
		d := dir(i)
		run, out := h.timed(w, w.store, d, rep)
		if w.store == storeCold {
			os.RemoveAll(d)
		}
		if out == nil {
			continue
		}
		ready = append(ready, run.readyS)
		wall = append(wall, out.WallS)
		cpu = append(cpu, run.cpuS)
		rss = append(rss, run.rssMB)
		p4m4 = append(p4m4, p4m4Cycles(out.Results))
		code = append(code, codeKB(out.Results))
	}
	setup := make([]float64, len(ready))
	for i, r := range ready {
		setup[i] = r + median(prep)
	}
	samples := map[string][]float64{"wall_s": wall, "setup_s": setup, "cpu_s": cpu,
		"peak_rss_mb": rss, "p4_m4_cycles": p4m4, "code_kb": code}
	rep.EndToEnd = map[string]summary{}
	for _, m := range endToEnd {
		if xs := samples[m.name]; len(xs) > 0 {
			rep.EndToEnd[m.name] = summarize(m.unit, xs)
		}
	}
}

// p4m4Cycles is the geometric mean over benchmarks of P4/M4 cycles
// with the I-cache.
func p4m4Cycles(results []*pipeline.Result) float64 {
	sum, n := 0.0, 0
	for _, r := range results {
		if r == nil {
			continue
		}
		m4, p4 := r.ByScheme[pipeline.SchemeM4], r.ByScheme[pipeline.SchemeP4]
		if m4 == nil || p4 == nil || m4.Cycles == 0 {
			continue
		}
		sum += math.Log(float64(p4.Cycles) / float64(m4.Cycles))
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// codeKB is the transformed code size summed over every (benchmark,
// scheme) pair.
func codeKB(results []*pipeline.Result) float64 {
	var b int64
	for _, r := range results {
		if r == nil {
			continue
		}
		for _, m := range r.ByScheme {
			b += m.CodeBytes
		}
	}
	return float64(b) / 1024
}

// perLayer runs one end-to-end child over a store (populated first on
// store-warm) for the cache counters, times that store from outside,
// and runs the traced child.
func (h *harness) perLayer(w workload, rep *workloadReport) {
	layer := map[string]float64{}
	rep.PerLayer = layer
	dir, st := h.path("store"), storeCold
	defer os.RemoveAll(dir)
	if w.store == storeWarm {
		if _, out := h.timed(w, storeCold, dir, rep); out == nil {
			return
		}
		st = storeWarm
	}
	_, e2e := h.timed(w, st, dir, rep)
	if e2e == nil {
		return
	}
	layer["pipeline.compiles"] = float64(e2e.Compile.Compiles)
	layer["pipeline.layout_runs"] = float64(e2e.Compile.LayoutRuns)
	c := e2e.Cache
	for _, k := range []struct {
		kind string
		t    pipeline.TierStats
	}{{"compile", c.Compile}, {"layout", c.Layout}} {
		layer["pipeline.cache."+k.kind+"_builds"] = float64(k.t.Builds)
		layer["pipeline.cache."+k.kind+"_mem_hits"] = float64(k.t.MemHits)
		layer["pipeline.cache."+k.kind+"_disk_hits"] = float64(k.t.DiskHits)
	}
	all := c.Compile.Add(c.Layout)
	layer["pipeline.cache.claim_waits"] = float64(all.ClaimWaits)
	layer["pipeline.cache.dedups"] = float64(all.Dedups)
	if lookups := all.MemHits + all.DiskHits + all.Builds + all.Dedups; lookups > 0 {
		layer["pipeline.cache.hit_ratio"] = float64(lookups-all.Builds) / float64(lookups)
	}
	put := h.path("store-put")
	defer os.RemoveAll(put)
	if err := timeStore(dir, put, layer); err != nil {
		rep.problem("store layer: %v", err)
	}

	var tr traceOutput
	j := h.job(modeTrace, w, "")
	run, err := spawn(j, 1, &tr)
	os.Remove(j.Out)
	n := rep.nBench * nSchemes
	rep.Attempted += n
	if err != nil {
		rep.Failed += n
		rep.problem("%v", err)
		return
	}
	rep.sameInputs(run)
	self, coverage, traced, untraced := layerTimes(tr.Spans)
	for _, l := range leafLayers {
		layer[l+"_s"] = self[l]
	}
	for k, v := range tr.Counts {
		layer[k] = v
	}
	if s := layer["interp.measure_s"]; s > 0 {
		layer["interp.minstr_per_s"] = layer["interp.measure_minstr"] / s
	}
	layer["trace.coverage"] = coverage
	if untraced > 0 {
		layer["trace.overhead_frac"] = traced/untraced - 1
	}
	if coverage < minCoverage {
		rep.problem("leaf spans cover %.1f%% of traced time, want %.0f%%", 100*coverage, 100*minCoverage)
	}
	rep.driftGuard(e2e, tr.Measurements)
}
