// Command bench is the repository's benchmark: it times fresh-process
// runs of the whole pipeline (profile the training input, form
// superblocks, compact, lay out, measure the testing input with the
// I-cache) on six workloads, and breaks one traced run per workload
// down into the layers that did the work.
//
// It is a module of its own; run it from the repository root with
//
//	bash cmd/bench/run.sh [-seed N] [-runs 5] [-o out.json]
//	bash cmd/bench/run.sh -compare old.json new.json
//
// or, inside cmd/bench, with go run . and the same flags. Its tests run
// inside cmd/bench with go test ./... . baseline.json is the report of
// a full run at seed 0 (-runs 5) on a 2-CPU machine; to judge a change,
// run both commits on one machine and -compare the two reports.
//
// # Workloads
//
// Every workload runs all 14 benchmarks under all five schemes with the
// 32KB I-cache:
//
//   - suite: the experiments default (memory cache, gates off, window
//     profiler); formation and compaction do most of the work.
//   - suite-bl: suite with Ball–Larus profiling, the control for any
//     window-profiler change.
//   - suite-gated: suite with Check and Validate on, the only workload
//     whose timed runs pay for the gates.
//   - long-inputs: every Train/Test Scale times 4; the interpreter and
//     profilers dominate.
//   - store-cold: suite over an empty artifact store (store writes and
//     the IR codec).
//   - store-warm: set-up populates two stores with store-cold children;
//     the timed children replay them with 0 builds.
//
// BENCHMARK.json names the three workloads a per-change check runs,
// few enough that each run can be long on a noisy shared host: suite,
// long-inputs and store-cold. The others run in a full invocation or
// with -workload.
//
// The seed is XORed into every input seed (seed 0 gives the canonical
// Table 1 inputs); the pipeline only ever sees the generated inputs.
//
// # End-to-end metrics
//
// Each timed run is a fresh child process (this binary re-executed)
// with GOMAXPROCS=2 that drives pipeline.Runner.RunBenchmark, with
// Options.Parallelism=2, from a pool of two goroutines: a closed loop
// with one client. A workload's runs are closed-loop too: each child
// starts after the previous one exits. Every metric is the median over
// the workload's children, printed with its quartiles and count:
//
//	wall_s        s      first pipeline call to last result, in the child
//	setup_s       s      median spawn-until-ready over 15 probe children and
//	                     the timed ones, plus the median of the workload's
//	                     preparation (store-warm: populating a store, twice);
//	                     a child is ready once it has built, verified and
//	                     fingerprinted every input program
//	cpu_s         s      child user+sys CPU
//	peak_rss_mb   MB     child peak RSS
//	p4_m4_cycles  ratio  geomean over benchmarks of P4/M4 cycles with the I-cache
//	code_kb       KB     transformed code bytes over all (benchmark, scheme) pairs
//	fail_frac     ratio  failed / attempted (benchmark, scheme) measurements
//
// A measurement fails on a pipeline error (which includes output that
// diverges from the reference run) or when its result differs from the
// workload's first run. Every child of a workload must build the same
// input programs. suite, suite-gated, store-cold and store-warm must
// produce identical results. store-warm children must build
// nothing and store-cold children must hit no disk entry. Any failure
// makes the exit code nonzero.
//
// # Per-layer metrics
//
// One traced child per workload (GOMAXPROCS=1) re-drives the pipeline's
// uncached path stage by stage, gates included, recording a span tree
// (workload → benchmark → scheme → stage); the per-layer times are span
// self times, the counts come from the layers' results. An end-to-end
// child beside it, over a store, gives the pipeline.* cache counters,
// and the store.* times come from reading, verifying and re-writing
// that store from outside. The traced measurements must equal the
// end-to-end child's, leaf spans must cover at least 98% of traced
// time, and trace.overhead_frac compares traced time with untraced
// RunBenchmark calls over the same inputs. The metric table in
// metrics.go names, for every per-layer metric, the end-to-end metric
// and workload it should move.
//
// # Flags
//
//	-workload W   run one workload (default: all six)
//	-seed N       input seed (default 0)
//	-runs N       minimum timed children per workload (default 5)
//	-seconds S    keep starting timed children until S seconds have passed
//	-trace T      0: end-to-end only, 1: per-layer only, -1: both (default)
//	-bench a,b    restrict the benchmarks (default: all 14)
//	-o FILE       write the report as JSON
//	-work DIR     scratch directory (default .bench_build/work)
//	-compare      compare two reports: bench -compare old.json new.json
//
// With -workload, the last line of output is one JSON object with the
// keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	if isChild, code := childMain(); isChild {
		os.Exit(code)
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the harness's command line; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run one workload (default: all)")
		seed    = fs.Uint64("seed", 0, "input seed, XORed into every benchmark input seed")
		runs    = fs.Int("runs", 5, "minimum timed children per workload")
		seconds = fs.Float64("seconds", 0, "keep starting timed children until this many seconds have passed")
		trace   = fs.Int("trace", -1, "0: end-to-end metrics only, 1: per-layer metrics only, -1: both")
		benches = fs.String("bench", "", "comma-separated benchmark names (default: all)")
		outPath = fs.String("o", "", "write the report as JSON to this file")
		work    = fs.String("work", filepath.Join(".bench_build", "work"), "scratch directory")
		cmp     = fs.Bool("compare", false, "compare two reports given as arguments: old.json new.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two reports: old.json new.json")
			return 2
		}
		worse, err := compare(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if worse > 0 {
			fmt.Fprintf(stdout, "%d worse verdict(s)\n", worse)
			return 1
		}
		return 0
	}
	if fs.NArg() > 0 || *runs < 1 && *seconds <= 0 || *trace < -1 || *trace > 1 {
		fs.Usage()
		return 2
	}
	ws := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		ws = []workload{w}
	}
	h := &harness{
		seed:    *seed,
		runs:    *runs,
		seconds: time.Duration(*seconds * float64(time.Second)),
	}
	if *benches != "" {
		h.bench = strings.Split(*benches, ",")
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	h.work = dir

	rep := &report{
		Seed:       *seed,
		Runs:       *runs,
		Seconds:    *seconds,
		Bench:      h.bench,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: timedProcs,
		GoVersion:  runtime.Version(),
	}
	for _, w := range ws {
		fmt.Fprintf(stderr, "bench: %s\n", w.name)
		rep.Workloads = append(rep.Workloads, h.workload(w, *trace))
	}
	rep.checkShared()
	rep.print(stdout)
	if *outPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*outPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if *name != "" {
		line, err := json.Marshal(rep.Workloads[0].resultLine())
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	if !rep.correct() {
		return 1
	}
	return 0
}
