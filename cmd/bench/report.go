package main

import (
	"encoding/json"
	"fmt"
	"io"

	"pathsched/internal/pipeline"
)

// report is one invocation's results; -o writes it and -compare reads
// two of them.
type report struct {
	Seed       uint64            `json:"seed"`
	Runs       int               `json:"runs"`
	Seconds    float64           `json:"seconds"`
	Bench      []string          `json:"bench,omitempty"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"` // of the timed children; the traced child runs at 1
	GoVersion  string            `json:"go_version"`
	Workloads  []*workloadReport `json:"workloads"`
}

// workloadReport is one workload's results.
type workloadReport struct {
	Name      string             `json:"name"`
	Attempted int                `json:"attempted"` // (benchmark, scheme) measurements
	Failed    int                `json:"failed"`
	Digest    string             `json:"digest,omitempty"` // of the first run's results
	Inputs    string             `json:"inputs,omitempty"` // digest of the input programs every child built
	EndToEnd  map[string]summary `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Problems  []string           `json:"problems,omitempty"`

	nBench int
	shared bool         // results must equal suite's
	ref    *timedOutput // the first run, which later runs must match
}

func (r *report) workload(name string) *workloadReport {
	for _, w := range r.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

func (r *report) correct() bool {
	for _, w := range r.Workloads {
		if w.Failed > 0 || len(w.Problems) > 0 {
			return false
		}
	}
	return true
}

// checkShared fails the workloads whose results must equal suite's
// first run (or, without suite, the first such workload's) but do not.
func (r *report) checkShared() {
	var ref *workloadReport
	for _, rep := range r.Workloads {
		if !rep.shared || rep.ref == nil {
			continue
		}
		if ref == nil {
			ref = rep
			continue
		}
		if rep.Digest != ref.Digest {
			rep.problem("result digest %.12s differs from %s's %.12s", rep.Digest, ref.Name, ref.Digest)
			rep.Failed += mismatches(ref.ref.Results, rep.ref.Results)
		}
	}
}

func (rep *workloadReport) problem(format string, args ...any) {
	rep.Problems = append(rep.Problems, fmt.Sprintf(format, args...))
}

// sameInputs fails rep unless every child of the workload built the
// same input programs.
func (rep *workloadReport) sameInputs(run childRun) {
	switch {
	case rep.Inputs == "":
		rep.Inputs = run.inputs
	case run.inputs != rep.Inputs:
		rep.problem("a child built inputs %.12s, the first one %.12s", run.inputs, rep.Inputs)
	}
}

// account folds one timed child's outcome into rep and reports whether
// the child ran. st is what the child's store held when it started.
func (rep *workloadReport) account(out *timedOutput, err error, st storeMode) bool {
	n := rep.nBench * nSchemes
	rep.Attempted += n
	if err != nil {
		rep.Failed += n
		rep.problem("%v", err)
		return false
	}
	for _, e := range out.Errors {
		if e != "" {
			rep.Failed += nSchemes
			rep.problem("%s", e)
		}
	}
	if rep.ref == nil {
		rep.ref, rep.Digest = out, out.Digest
	} else if out.Digest != rep.Digest {
		rep.problem("result digest %.12s differs from the first run's %.12s", out.Digest, rep.Digest)
		rep.Failed += mismatches(rep.ref.Results, out.Results)
	}
	c := out.Cache
	switch st {
	case storeCold:
		if hits := c.Compile.DiskHits + c.Layout.DiskHits; hits != 0 {
			rep.problem("a child over an empty store hit %d disk entries", hits)
		}
	case storeWarm:
		if builds := c.Compile.Builds + c.Layout.Builds; builds != 0 {
			rep.problem("a child over a populated store built %d artifacts", builds)
		}
	}
	return true
}

// mismatches counts the measurements of got that differ from want's.
// Benchmarks that failed in got are already counted.
func mismatches(want, got []*pipeline.Result) int {
	n := 0
	for i, g := range got {
		if g == nil {
			continue
		}
		var w *pipeline.Result
		if i < len(want) {
			w = want[i]
		}
		for _, s := range pipeline.AllSchemes() {
			if w == nil || g.Name != w.Name || !sameJSON(w.ByScheme[s], g.ByScheme[s]) {
				n++
			}
		}
	}
	return n
}

func sameJSON(a, b any) bool {
	x, errA := json.Marshal(a)
	y, errB := json.Marshal(b)
	return errA == nil && errB == nil && string(x) == string(y)
}

// driftGuard fails every traced measurement that differs from the
// end-to-end child's.
func (rep *workloadReport) driftGuard(e2e *timedOutput, traced []drift) {
	want := map[string]drift{}
	for _, r := range e2e.Results {
		if r == nil {
			continue
		}
		for _, m := range r.ByScheme {
			want[r.Name+"/"+string(m.Scheme)] = driftOf(r.Name, m)
		}
	}
	if len(traced) != rep.nBench*nSchemes {
		rep.problem("traced run measured %d (benchmark, scheme) pairs, want %d", len(traced), rep.nBench*nSchemes)
	}
	for _, d := range traced {
		if w, ok := want[d.Bench+"/"+string(d.Scheme)]; !ok || w != d {
			rep.Failed++
			rep.problem("traced run drifted on %s/%s: traced %+v, end-to-end %+v", d.Bench, d.Scheme, d, w)
		}
	}
}

// endToEnd returns m's summary; fail_frac is derived from the counts.
func (rep *workloadReport) endToEnd(m metric) (summary, bool) {
	if m.name == failFrac.name {
		if rep.Attempted == 0 {
			return summary{}, false
		}
		f := float64(rep.Failed) / float64(rep.Attempted)
		return summarize(m.unit, []float64{f}), true
	}
	s, ok := rep.EndToEnd[m.name]
	return s, ok
}

// value is one metric of a result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the one-line JSON result of a single-workload run.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func (rep *workloadReport) resultLine() resultLine {
	l := resultLine{
		Correct:   rep.Failed == 0 && len(rep.Problems) == 0,
		Attempted: rep.Attempted,
		Failed:    rep.Failed,
		Metrics:   map[string]value{},
	}
	for _, m := range endToEnd {
		if s, ok := rep.EndToEnd[m.name]; ok {
			l.Metrics[m.name] = value{s.Median, m.unit}
		}
	}
	for _, m := range perLayer {
		if v, ok := rep.PerLayer[m.name]; ok {
			l.Metrics[m.name] = value{v, m.unit}
		}
	}
	return l
}

// print writes every metric by name with its unit.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "bench: seed %d, at least %d timed runs", r.Seed, r.Runs)
	if r.Seconds > 0 {
		fmt.Fprintf(w, " and %gs", r.Seconds)
	}
	fmt.Fprintf(w, " per workload; nproc %d, GOMAXPROCS %d (timed) / 1 (traced), %s\n",
		r.NProc, r.GOMAXPROCS, r.GoVersion)
	for _, rep := range r.Workloads {
		fmt.Fprintf(w, "\n%s: %d/%d measurements failed", rep.Name, rep.Failed, rep.Attempted)
		if rep.Digest != "" {
			fmt.Fprintf(w, ", results digest %.12s", rep.Digest)
		}
		fmt.Fprintln(w)
		for _, m := range append(append([]metric(nil), endToEnd...), failFrac) {
			if s, ok := rep.endToEnd(m); ok {
				fmt.Fprintf(w, "  %-34s %14.6g %-8s [q1 %.6g, q3 %.6g] n=%d\n", m.name, s.Median, m.unit, s.Q1, s.Q3, s.N)
			}
		}
		for _, m := range perLayer {
			if v, ok := rep.PerLayer[m.name]; ok {
				fmt.Fprintf(w, "  %-34s %14.6g %-8s moves %s\n", m.name, v, m.unit, m.moves)
			}
		}
		for _, p := range rep.Problems {
			fmt.Fprintf(w, "  FAIL %s\n", p)
		}
	}
}
