package main

import (
	"fmt"

	"pathsched/internal/bench"
	"pathsched/internal/machine"
	"pathsched/internal/pipeline"
)

// storeMode says which artifact store a workload's timed children use.
type storeMode int

const (
	storeNone storeMode = iota // memory cache only
	storeCold                  // a fresh, empty store per child
	storeWarm                  // a store populated during set-up
)

// workload is one set of pipeline inputs and options the benchmark runs.
type workload struct {
	name     string
	why      string
	profiler pipeline.ProfilerScheme
	gated    bool  // Check and Validate on
	scale    int64 // multiplies every Train and Test Scale
	store    storeMode
}

// workloads are the benchmark's workloads in run order. Every one runs
// all 14 benchmarks under all five schemes with the 32KB I-cache; they
// differ in the layer they load. suite, suite-gated, store-cold and
// store-warm share inputs and profiler, so their results must be
// byte-identical.
var workloads = []workload{
	{name: "suite", scale: 1,
		why: "the experiments default (memory cache, gates off, window profiler); formation and compaction do most of the work"},
	{name: "suite-bl", scale: 1, profiler: pipeline.ProfilerBL,
		why: "suite with Ball-Larus path profiling: the control that bypasses the window profiler"},
	{name: "suite-gated", scale: 1, gated: true,
		why: "suite with the checker and the translation validator on, the regime every go test runs"},
	{name: "long-inputs", scale: 4,
		why: "every input scaled 4x: same static code, ~6.5x dynamic work, so the interpreter and profilers dominate"},
	{name: "store-cold", scale: 1, store: storeCold,
		why: "suite in a fresh process over an empty artifact store: the store write path and IR codec do work"},
	{name: "store-warm", scale: 1, store: storeWarm,
		why: "fresh processes replaying a populated store: formation and compaction are bypassed (0 builds)"},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// sharesResults reports whether w's results must equal suite's.
func (w workload) sharesResults() bool {
	return w.profiler == "" && w.scale == 1
}

// options returns the pipeline options of w's runs. Check and Validate
// are explicit because their zero values turn on inside test binaries,
// which the children of bench_test.go are.
func (w workload) options(parallelism int) pipeline.Options {
	ic := machine.DefaultICache()
	o := pipeline.Options{
		Cache:       &ic,
		Profiler:    w.profiler,
		Parallelism: parallelism,
		Check:       pipeline.CheckOff,
		Validate:    pipeline.ValidateOff,
	}
	if w.gated {
		o.Check, o.Validate = pipeline.CheckOn, pipeline.ValidateOn
	}
	return o
}

// benchmarks returns copies of the named suite members (nil names the
// whole suite) with seed XORed into every input seed and every input
// Scale multiplied by w.scale. Seed 0 gives the canonical Table 1
// inputs.
func (w workload) benchmarks(names []string, seed uint64) ([]*bench.Benchmark, error) {
	var src []*bench.Benchmark
	if names == nil {
		src = bench.All()
	}
	for _, n := range names {
		b := bench.ByName(n)
		if b == nil {
			return nil, fmt.Errorf("unknown benchmark %q", n)
		}
		src = append(src, b)
	}
	out := make([]*bench.Benchmark, len(src))
	for i, b := range src {
		c := *b
		c.Train.Seed ^= seed
		c.Test.Seed ^= seed
		c.Train.Scale *= w.scale
		c.Test.Scale *= w.scale
		out[i] = &c
	}
	return out, nil
}
