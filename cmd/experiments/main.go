// Command experiments regenerates every table and figure of Young &
// Smith, "Better Global Scheduling Using Path Profiles" (MICRO-31,
// 1998), on the reproduction's synthetic benchmark suite.
//
// Usage:
//
//	experiments                  # everything: Table 1, Figures 4-7, miss rates
//	experiments -only fig4,fig7  # a subset
//	experiments -bench gcc,go    # restrict the benchmark set
//	experiments -realistic       # multi-cycle load/mul latencies (§3.2 note)
//	experiments -j 1             # serial pipeline (default: GOMAXPROCS workers)
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"pathsched/internal/core"
	"pathsched/internal/machine"
	"pathsched/internal/pipeline"
	"pathsched/internal/sched"
	"pathsched/internal/stats"
	"pathsched/internal/store"
)

func main() {
	var (
		only      = flag.String("only", "all", "comma-separated subset: table1,fig4,fig5,fig6,fig7,miss,summary")
		benches   = flag.String("bench", "", "comma-separated benchmark names (default: whole suite)")
		realistic = flag.Bool("realistic", false, "use multi-cycle load/mul latencies")
		depth     = flag.Int("depth", 15, "general path profile depth in branches")
		profiler  = flag.String("profiler", "window", "path profiling scheme: window (sliding-window) or bl (Ball-Larus numbered paths)")
		bliters   = flag.Int("bliters", 0, "Ball-Larus k-iteration extension depth (0 = adaptive to -depth, min 2; only with -profiler bl)")
		ways      = flag.Int("ways", 1, "I-cache associativity (paper: 1, direct-mapped)")
		ablate    = flag.Bool("ablate", false, "run design-choice ablations instead of the figures")
		jsonOut   = flag.Bool("json", false, "emit raw measurements as JSON instead of text reports")
		jobs      = flag.Int("j", 0, "parallel pipeline workers (0 = GOMAXPROCS, 1 = serial)")
		cstats    = flag.Bool("cachestats", false, "report how many compiles were read from the -store directory and how many were built")
		docheck   = flag.Bool("check", false, "run the semantic checker after every pipeline stage")
		dovalid   = flag.Bool("validate", false, "prove every compile semantically equivalent to its pristine IR and report the verdict table")
		profstats = flag.Bool("profstats", false, "report per-benchmark training-run statistics (fast-path modes, batch flushes, automaton sizes)")
		compstats = flag.Bool("compilestats", false, "report per-stage compile wall time (form, compact, check, layout)")
		exact     = flag.Bool("exact", false, "schedule with the exact branch-and-bound search (falls back to the list schedule above the budgets)")
		exnodes   = flag.Int("exactnodes", 0, "exact-search node budget per region (0 = default 32, max 64)")
		exsearch  = flag.Int64("exactsearch", 0, "exact-search step budget per region (0 = default 200000)")
		gapstats  = flag.Bool("gapstats", false, "report the gap-to-optimal table (implies -exact)")
		storeDir  = flag.String("store", "", "persistent artifact-store directory: laid-out compiles are read from it and published to it, shared across runs and processes")
		storeGC   = flag.Int64("storegc", 0, "after the run, prune the -store directory to this many bytes (oldest access first)")
	)
	flag.Parse()
	// Every flag is checked before anything runs, so a flag the run
	// would ignore or fail on late is a usage error (exit 2) instead.
	want := onlyReports(*only)
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	switch {
	case *depth < 0:
		usageError("-depth %d is negative", *depth)
	case *profiler != string(pipeline.ProfilerWindow) && *profiler != string(pipeline.ProfilerBL):
		usageError("unknown -profiler %q (want window or bl)", *profiler)
	case *bliters < 0:
		usageError("-bliters %d is negative", *bliters)
	case *bliters != 0 && *profiler != string(pipeline.ProfilerBL):
		usageError("-bliters only applies with -profiler bl")
	case *storeGC < 0:
		usageError("-storegc %d is negative", *storeGC)
	case *storeGC > 0 && *storeDir == "":
		usageError("-storegc requires -store")
	}
	switch {
	case *ablate:
		rejectIgnored(set, "-ablate", "json", "only", "realistic", "ways", "depth", "bliters", "profiler",
			"exact", "exactnodes", "exactsearch", "gapstats", "profstats", "compilestats")
	case *jsonOut:
		// -gapstats and -exact* change the schedules and the JSON's Gap
		// fields, and -check/-validate gate the run, so -json keeps them.
		rejectIgnored(set, "-json", "only", "cachestats", "profstats", "compilestats")
	}
	if *gapstats {
		*exact = true
	}

	// Without -check or -validate the gates resolve off: the Auto modes
	// enable them only under `go test`.
	checkMode := pipeline.CheckAuto
	if *docheck {
		checkMode = pipeline.CheckOn
	}
	validateMode := pipeline.ValidateAuto
	if *dovalid {
		validateMode = pipeline.ValidateOn
	}

	var st *store.Store
	if *storeDir != "" {
		var err error
		if st, err = store.Open(*storeDir, store.Options{}); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
	defer runStoreGC(st, *storeGC)

	if *ablate {
		runAblations(*benches, *jobs, *cstats, checkMode, validateMode, st)
		return
	}

	var names []string
	if *benches != "" {
		names = strings.Split(*benches, ",")
	}

	start := time.Now()
	mc := machine.Default()
	mc.Realistic = *realistic
	cache := machine.DefaultICache()
	cache.Ways = *ways
	runner := pipeline.NewRunner(pipeline.Options{
		Cache:         &cache,
		Profiler:      pipeline.ProfilerScheme(*profiler),
		BLIterations:  *bliters,
		PathDepth:     *depth,
		Parallelism:   *jobs,
		Check:         checkMode,
		Validate:      validateMode,
		ArtifactStore: st,
		Sched: sched.Options{Machine: mc, Exact: sched.ExactConfig{
			Enabled:      *exact,
			NodeBudget:   *exnodes,
			SearchBudget: *exsearch,
		}},
	})
	results, err := runner.RunSuite(names, pipeline.AllSchemes())
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}

	if *jsonOut {
		out, err := stats.JSON(results)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Println(out)
		return
	}
	workers := *jobs
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	fmt.Printf("# pathsched experiments — %d benchmarks, schemes %v, %d worker(s), wall clock %.1fs\n\n",
		len(results), pipeline.AllSchemes(), workers, time.Since(start).Seconds())
	if *cstats {
		if s, ok := runner.CacheStats(); ok {
			fmt.Printf("# cache: %s\n\n", s)
		} else {
			fmt.Printf("# cache: disabled\n\n")
		}
	}

	for _, rp := range reports {
		if want["all"] || want[rp.name] {
			fmt.Println(rp.render(results))
		}
	}
	if *gapstats {
		fmt.Println(stats.GapTable(results))
	}
	if *dovalid {
		fmt.Println(stats.ValidationTable(results))
	}
	if *profstats {
		printProfStats(results)
	}
	if *compstats {
		printCompileStats(runner.CompileStats())
	}
}

// reports are the tables -only selects from, in print order.
var reports = []struct {
	name   string
	render func([]*pipeline.Result) string
}{
	{"table1", stats.Table1},
	{"fig4", stats.Figure4},
	{"fig5", stats.Figure5},
	{"fig6", stats.Figure6},
	{"fig7", stats.Figure7},
	{"miss", stats.MissRates},
	{"summary", stats.Summary},
}

// onlyReports parses -only into the set of report names it selects;
// an unknown name is a usage error.
func onlyReports(only string) map[string]bool {
	want := map[string]bool{}
	for _, w := range strings.Split(only, ",") {
		w = strings.TrimSpace(w)
		known := w == "all"
		for _, rp := range reports {
			known = known || rp.name == w
		}
		if !known {
			usageError("unknown -only report %q (want all, table1, fig4, fig5, fig6, fig7, miss or summary)", w)
		}
		want[w] = true
	}
	return want
}

// usageError reports a bad command line and exits 2, the status the
// flag package gives an undefined flag.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
	os.Exit(2)
}

// rejectIgnored exits with a usage error naming the first of flags
// that was set on the command line, since mode does not read it.
func rejectIgnored(set map[string]bool, mode string, flags ...string) {
	for _, f := range flags {
		if set[f] {
			usageError("%s ignores -%s", mode, f)
		}
	}
}

// runStoreGC prunes the artifact store to maxBytes after the run, in
// every mode, and reports what it removed on stderr so that stdout
// stays the run's report (a no-op without -store/-storegc).
func runStoreGC(st *store.Store, maxBytes int64) {
	if st == nil || maxBytes <= 0 {
		return
	}
	gc, err := st.GC(maxBytes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments: store gc:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "# store gc: removed %d entries (%d bytes); %d entries (%d bytes) remain\n",
		gc.Removed, gc.RemovedBytes, gc.Entries, gc.Bytes)
}

// printCompileStats reports where compile time went across the whole
// run. Stage times sum over concurrent compiles, so they can exceed
// wall clock on parallel runs.
func printCompileStats(cs pipeline.CompileStats) {
	fmt.Println("\n# compile-stage wall time (summed across workers)")
	fmt.Printf("  compiles: %d, layout replays: %d\n", cs.Compiles, cs.LayoutRuns)
	fmt.Printf("  %-8s %8.3fs\n", "form", cs.FormSeconds)
	fmt.Printf("  %-8s %8.3fs\n", "compact", cs.CompactSeconds)
	fmt.Printf("  %-8s %8.3fs\n", "check", cs.CheckSeconds)
	fmt.Printf("  %-8s %8.3fs\n", "validate", cs.ValidateSeconds)
	fmt.Printf("  %-8s %8.3fs\n", "layout", cs.LayoutSeconds)
}

// printProfStats reports how each benchmark's training run executed:
// the profiling scheme, the batch flush statistics, and per procedure
// the path automaton's node count.
func printProfStats(results []*pipeline.Result) {
	fmt.Println("# training-run profiling statistics")
	for _, r := range results {
		ps := r.ProfStats
		fmt.Printf("\n%s: scheme=%s\n", r.Name, ps.Scheme)
		rec := float64(0)
		if ps.Batches > 0 {
			rec = float64(ps.Records) / float64(ps.Batches)
		}
		fmt.Printf("  path batches: %d flushes, %d records (%.1f records/flush)\n",
			ps.Batches, ps.Records, rec)
		var nodes int
		for _, a := range ps.Automaton {
			nodes += a.Nodes
		}
		fmt.Printf("  path automaton: %d nodes over %d procs\n", nodes, len(ps.Automaton))
		for _, a := range ps.Automaton {
			if a.Nodes == 0 {
				continue
			}
			fmt.Printf("    proc %-3d %6d nodes\n", a.Proc, a.Nodes)
		}
	}
}

// runAblations measures how the design choices DESIGN.md calls out
// contribute to the path-based result: profile depth, the three §2.3
// compaction optimizations, and footnote 2's upward trace growth.
// Reported per configuration: geometric mean of P4/M4 ideal cycles
// over the ablation benchmark set.
//
// No two configurations resolve to the same compile (depth=15 is the
// experiments default), so a sweep builds every one of its compiles.
// With -store, each configuration's runner reads from and publishes to
// the store, so a repeated sweep starts warm.
func runAblations(benches string, jobs int, cstats bool, checkMode pipeline.CheckMode, validateMode pipeline.ValidateMode, st *store.Store) {
	names := []string{"alt", "ph", "corr", "wc", "eqn", "m88k"}
	if benches != "" {
		names = strings.Split(benches, ",")
	}
	type config struct {
		label string
		opts  pipeline.Options
	}
	var configs []config
	for _, d := range []int{1, 2, 4, 8, 15} {
		configs = append(configs, config{
			label: fmt.Sprintf("depth=%-2d", d),
			opts:  pipeline.Options{PathDepth: d},
		})
	}
	configs = append(configs,
		config{"no-renaming", pipeline.Options{Sched: sched.Options{DisableRenaming: true}}},
		config{"no-dce", pipeline.Options{Sched: sched.Options{DisableDCE: true}}},
		config{"no-vn", pipeline.Options{Sched: sched.Options{DisableVN: true}}},
		config{"upward-growth", pipeline.Options{Form: func(c *core.Config) { c.GrowUpward = true }}},
		config{"bl", pipeline.Options{Profiler: pipeline.ProfilerBL}},
		config{"bl-k2", pipeline.Options{Profiler: pipeline.ProfilerBL, BLIterations: 2}},
		config{"bl-k8", pipeline.Options{Profiler: pipeline.ProfilerBL, BLIterations: 8}},
	)
	fmt.Printf("# ablations over %v (geomean of P4/M4 ideal cycles; lower favors P4)\n\n", names)
	fmt.Printf("%-14s %10s %14s\n", "config", "P4/M4", "P4 cycles (K)")
	var total pipeline.CacheStats
	for _, c := range configs {
		c.opts.Parallelism = jobs
		c.opts.ArtifactStore = st
		c.opts.Check = checkMode
		c.opts.Validate = validateMode
		runner := pipeline.NewRunner(c.opts)
		results, err := runner.RunSuite(names, []pipeline.Scheme{pipeline.SchemeM4, pipeline.SchemeP4})
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		geo, n := 1.0, 0
		var cycles int64
		for _, r := range results {
			m4 := r.ByScheme[pipeline.SchemeM4]
			p4 := r.ByScheme[pipeline.SchemeP4]
			geo *= float64(p4.IdealCycles) / float64(m4.IdealCycles)
			cycles += p4.IdealCycles
			n++
		}
		if n > 0 {
			geo = math.Pow(geo, 1/float64(n))
		}
		fmt.Printf("%-14s %10.3f %14.1f\n", c.label, geo, float64(cycles)/1000)
		s, _ := runner.CacheStats()
		total.Compile = total.Compile.Add(s.Compile)
	}
	if cstats {
		if st != nil {
			fmt.Printf("\n# cache: %s\n", total)
		} else {
			fmt.Printf("\n# cache: disabled\n")
		}
	}
}
