package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// metric describes one reported number.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"

	// End-to-end metrics only. bound is the share of the old median by
	// which the metric may worsen before -compare calls it worse; floor,
	// when larger, is the same allowance in the metric's unit. exact
	// metrics repeat exactly at a fixed seed, so -compare calls any
	// worsening worse; their bound covers the spread across seeds.
	bound float64
	floor float64
	exact bool

	// Per-layer metrics only: the end-to-end metric a change to the
	// layer should move, and on which workload.
	moves string
}

// endToEnd are measured on untraced timed children; each run's value is
// the median over its children. fail_frac is reported beside them (see
// failFrac). The bounds cover the spread (interquartile range over the
// median) of ten seeds' runs on a shared 2-CPU virtual machine whose
// speed drifts by 10-25% over minutes: up to 13% for times, 10% for
// peak RSS, 2.8% for P4/M4 cycles and 0.8% for code size, whose inputs
// differ by seed.
var endToEnd = []metric{
	{name: "wall_s", unit: "s", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, floor: 0.05},
	{name: "cpu_s", unit: "s", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25},
	{name: "p4_m4_cycles", unit: "ratio", better: "lower", bound: 0.09, exact: true},
	{name: "code_kb", unit: "KB", better: "lower", bound: 0.03, exact: true},
}

// failFrac is failed (benchmark, scheme) measurements over attempted
// ones. It is 0 on a correct run, so it travels as the attempted and
// failed counts rather than as a metric, and any increase is worse.
var failFrac = metric{name: "fail_frac", unit: "ratio", better: "lower", exact: true}

// perLayer come from one traced run per workload plus the end-to-end
// child beside it.
var perLayer = []metric{
	{name: "bench.build_s", unit: "s", better: "lower", moves: "wall_s on suite (guard)"},
	{name: "profile.train_s", unit: "s", better: "lower", moves: "wall_s on store-warm and suite; suite-bl bypasses it"},
	{name: "profile.path_nodes", unit: "count", better: "lower", moves: "wall_s, peak_rss_mb on suite; suite-bl bypasses it"},
	{name: "profile.batches", unit: "count", better: "lower", moves: "wall_s on store-warm and suite"},
	{name: "profile.point_s", unit: "s", better: "lower", moves: "wall_s on long-inputs"},
	{name: "interp.reference_s", unit: "s", better: "lower", moves: "wall_s on long-inputs"},
	{name: "interp.measure_s", unit: "s", better: "lower", moves: "wall_s on long-inputs"},
	{name: "interp.measure_minstr", unit: "Minstr", better: "lower", moves: "wall_s on long-inputs"},
	{name: "interp.minstr_per_s", unit: "Minstr/s", better: "higher", moves: "wall_s on long-inputs"},
	{name: "machine.icache_accesses", unit: "count", better: "lower", moves: "p4_m4_cycles on all"},
	{name: "machine.icache_misses", unit: "count", better: "lower", moves: "p4_m4_cycles on all"},
	{name: "core.form_s", unit: "s", better: "lower", moves: "wall_s, cpu_s on suite; none on store-warm"},
	{name: "core.traces", unit: "count", better: "lower", moves: "code_kb, p4_m4_cycles on all"},
	{name: "core.tail_dups", unit: "count", better: "lower", moves: "code_kb, p4_m4_cycles on all"},
	{name: "core.enlarge_copies", unit: "count", better: "lower", moves: "code_kb, p4_m4_cycles on all"},
	{name: "sched.compact_s", unit: "s", better: "lower", moves: "wall_s, cpu_s on suite; none on store-warm"},
	{name: "layout.assign_s", unit: "s", better: "lower", moves: "wall_s on suite (guard)"},
	{name: "ir.clone_s", unit: "s", better: "lower", moves: "wall_s on suite (guard)"},
	{name: "check.gate_s", unit: "s", better: "lower", moves: "wall_s on suite-gated only"},
	{name: "validate.equiv_s", unit: "s", better: "lower", moves: "wall_s on suite-gated only"},
	{name: "validate.proved", unit: "count", better: "higher", moves: "wall_s on suite-gated only"},
	{name: "validate.bounded", unit: "count", better: "lower", moves: "wall_s on suite-gated only"},
	{name: "pipeline.compiles", unit: "count", better: "lower", moves: "wall_s on store-warm and suite"},
	{name: "pipeline.layout_runs", unit: "count", better: "lower", moves: "wall_s on store-warm and suite"},
	{name: "pipeline.cache.compile_builds", unit: "count", better: "lower", moves: "wall_s on store-warm and suite"},
	{name: "pipeline.cache.compile_mem_hits", unit: "count", better: "higher", moves: "wall_s on suite"},
	{name: "pipeline.cache.compile_disk_hits", unit: "count", better: "higher", moves: "wall_s on store-warm"},
	{name: "pipeline.cache.layout_builds", unit: "count", better: "lower", moves: "wall_s on store-warm and suite"},
	{name: "pipeline.cache.layout_mem_hits", unit: "count", better: "higher", moves: "wall_s on suite"},
	{name: "pipeline.cache.layout_disk_hits", unit: "count", better: "higher", moves: "wall_s on store-warm"},
	{name: "pipeline.cache.claim_waits", unit: "count", better: "lower", moves: "wall_s on store-warm"},
	{name: "pipeline.cache.dedups", unit: "count", better: "higher", moves: "wall_s on suite"},
	{name: "pipeline.cache.hit_ratio", unit: "ratio", better: "higher", moves: "wall_s on store-warm and suite"},
	{name: "store.entries", unit: "count", better: "lower", moves: "wall_s on store-cold"},
	{name: "store.bytes", unit: "B", better: "lower", moves: "wall_s on store-cold"},
	{name: "store.put_s", unit: "s", better: "lower", moves: "wall_s on store-cold"},
	{name: "store.get_s", unit: "s", better: "lower", moves: "wall_s, setup_s on store-warm"},
	{name: "store.verify_s", unit: "s", better: "lower", moves: "wall_s, setup_s on store-warm"},
	{name: "trace.coverage", unit: "ratio", better: "higher", moves: "self-check: at least 0.98"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower", moves: "self-check"},
}

// summary is a metric's values over one run's children.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func summarize(unit string, xs []float64) summary {
	q1, q3 := quartiles(xs)
	return summary{Unit: unit, Median: median(xs), Q1: q1, Q3: q3, N: len(xs), Values: xs}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), so the
// spreads printed here match the ones computed from the result lines.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// Verdicts of -compare.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
)

// judge compares one metric's old and new runs. The change is worse
// when its median is worse than the old one by more than the allowance
// (any amount for exact metrics), better when it improves by more than
// the spread of either side, and unresolved when either side's spread
// exceeds the bound and the two sets of runs do not separate.
func judge(m metric, old, new summary) string {
	sign := 1.0 // > 0 means new is worse
	if m.better == "higher" {
		sign = -1
	}
	diff := sign * (new.Median - old.Median)
	allow := math.Max(m.bound*math.Abs(old.Median), m.floor)
	if m.exact {
		allow = 0
	}
	spread := math.Max(relSpread(old), relSpread(new)) * math.Abs(old.Median)
	separated := allWorse(sign, old.Values, new.Values) || allWorse(-sign, old.Values, new.Values)
	switch {
	case !m.exact && spread > m.bound*math.Abs(old.Median) && !separated:
		return verdictUnresolved
	case diff > allow:
		return verdictWorse
	case -diff > spread:
		return verdictBetter
	default:
		return verdictUnchanged
	}
}

func relSpread(s summary) float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// allWorse reports whether every new value is worse than every old one
// when sign > 0 means larger is worse.
func allWorse(sign float64, old, new []float64) bool {
	if len(old) == 0 || len(new) == 0 {
		return false
	}
	for _, o := range old {
		for _, n := range new {
			if sign*(n-o) <= 0 {
				return false
			}
		}
	}
	return true
}

// compare prints, per workload and end-to-end metric, both sides'
// medians and quartiles, the allowance and a verdict. It returns the
// number of worse verdicts.
func compare(w io.Writer, oldPath, newPath string) (int, error) {
	old, err := readReport(oldPath)
	if err != nil {
		return 0, err
	}
	cur, err := readReport(newPath)
	if err != nil {
		return 0, err
	}
	worse := 0
	fmt.Fprintf(w, "%-12s %-14s %28s %28s %10s  %s\n", "workload", "metric", "old median [q1, q3]", "new median [q1, q3]", "bound", "verdict")
	for _, nw := range cur.Workloads {
		ow := old.workload(nw.Name)
		if ow == nil {
			fmt.Fprintf(w, "%-12s (not in %s)\n", nw.Name, oldPath)
			continue
		}
		rows := append([]metric(nil), endToEnd...)
		rows = append(rows, failFrac)
		for _, m := range rows {
			o, okOld := ow.endToEnd(m)
			n, okNew := nw.endToEnd(m)
			if !okOld || !okNew {
				continue
			}
			v := judge(m, o, n)
			if v == verdictWorse {
				worse++
			}
			bound := fmt.Sprintf("%.0f%%", 100*m.bound)
			switch {
			case m.exact:
				bound = "exact"
			case m.floor > 0:
				bound += fmt.Sprintf("|%g%s", m.floor, m.unit)
			}
			fmt.Fprintf(w, "%-12s %-14s %28s %28s %10s  %s\n", nw.Name, m.name, fmtSummary(o), fmtSummary(n), bound, v)
		}
	}
	return worse, nil
}

func fmtSummary(s summary) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", s.Median, s.Q1, s.Q3)
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
