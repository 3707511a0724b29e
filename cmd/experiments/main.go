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
		cstats    = flag.Bool("cachestats", false, "report compile-cache hits, misses, and dedups")
		nocache   = flag.Bool("nocache", false, "disable the compile cache (laid-out binaries)")
		docheck   = flag.Bool("check", false, "run the semantic checker after every pipeline stage")
		dovalid   = flag.Bool("validate", false, "prove every compile semantically equivalent to its pristine IR and report the verdict table")
		profstats = flag.Bool("profstats", false, "report per-benchmark training-run statistics (fast-path modes, batch flushes, automaton sizes)")
		compstats = flag.Bool("compilestats", false, "report per-stage compile wall time (form, compact, check, layout)")
		exact     = flag.Bool("exact", false, "schedule with the exact branch-and-bound search (falls back to the list schedule above the budgets)")
		exnodes   = flag.Int("exactnodes", 0, "exact-search node budget per region (0 = default 32, max 64)")
		exsearch  = flag.Int64("exactsearch", 0, "exact-search step budget per region (0 = default 200000)")
		gapstats  = flag.Bool("gapstats", false, "report the gap-to-optimal table (implies -exact)")
		storeDir  = flag.String("store", "", "persistent artifact-store directory (disk tier under the cache, shared across processes)")
		storeGC   = flag.Int64("storegc", 0, "after the run, prune the -store directory to this many bytes (oldest access first)")
		shardSpec = flag.String("shards", "", "run only shard i of n ('i/n', 0-based) of the benchmark list")
		spawnN    = flag.Int("spawn", 0, "fork N worker processes sharing one artifact store and merge their results")
		shardOut  = flag.String("shardout", "", "write this shard's results as a JSON envelope to FILE instead of reports (used by -spawn)")
	)
	flag.Parse()
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
	if *storeGC > 0 && st == nil {
		fmt.Fprintln(os.Stderr, "experiments: -storegc requires -store")
		os.Exit(2)
	}

	if *spawnN > 0 {
		// The spawn driver merges child results parsed back from JSON,
		// which deliberately excludes the per-process observational
		// fields those reports need.
		for _, bad := range []struct {
			set  bool
			name string
		}{{*ablate, "-ablate"}, {*profstats, "-profstats"}, {*compstats, "-compilestats"}, {*dovalid, "-validate"}, {*shardSpec != "", "-shards"}, {*shardOut != "", "-shardout"}} {
			if bad.set {
				fmt.Fprintf(os.Stderr, "experiments: -spawn is incompatible with %s\n", bad.name)
				os.Exit(2)
			}
		}
	}

	if *ablate {
		runAblations(*benches, *jobs, *cstats, *nocache, checkMode, validateMode, st)
		return
	}

	var names []string
	if *benches != "" {
		names = strings.Split(*benches, ",")
	}

	var (
		results    []*pipeline.Result
		runner     *pipeline.Runner
		shardStats []pipeline.CacheStats
	)
	start := time.Now()
	if *spawnN > 0 {
		var err error
		results, shardStats, err = spawnWorkers(*spawnN, *storeDir, names)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	} else {
		if *shardSpec != "" {
			var index, count int
			if _, err := fmt.Sscanf(*shardSpec, "%d/%d", &index, &count); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: bad -shards %q (want i/n)\n", *shardSpec)
				os.Exit(2)
			}
			var err error
			if names, err = pipeline.ShardNames(names, index, count); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(2)
			}
		}
		mc := machine.Default()
		mc.Realistic = *realistic
		cache := machine.DefaultICache()
		cache.Ways = *ways
		runner = pipeline.NewRunner(pipeline.Options{
			Machine:             mc,
			Cache:               &cache,
			Profiler:            pipeline.ProfilerScheme(*profiler),
			BLIterations:        *bliters,
			PathDepth:           *depth,
			Parallelism:         *jobs,
			DisableProfileCache: *nocache,
			Check:               checkMode,
			Validate:            validateMode,
			ArtifactStore:       st,
			Sched: sched.Options{Exact: sched.ExactConfig{
				Enabled:      *exact,
				NodeBudget:   *exnodes,
				SearchBudget: *exsearch,
			}},
		})
		var err error
		results, err = runner.RunSuite(names, pipeline.AllSchemes())
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}

	if *shardOut != "" {
		env := shardEnvelope{Results: results}
		if s, ok := runner.CacheStats(); ok {
			env.Stats, env.HaveStats = s, true
		}
		if err := writeShardEnvelope(*shardOut, env); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		runStoreGC(st, *storeGC)
		return
	}

	if *jsonOut {
		out, err := stats.JSON(results)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Println(out)
		runStoreGC(st, *storeGC)
		return
	}
	workers := *jobs
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	fmt.Printf("# pathsched experiments — %d benchmarks, schemes %v, %d worker(s), wall clock %.1fs\n\n",
		len(results), pipeline.AllSchemes(), workers, time.Since(start).Seconds())
	if *cstats {
		switch {
		case shardStats != nil:
			total := pipeline.CacheStats{}
			for i, s := range shardStats {
				fmt.Printf("# cache shard %d: %s\n", i, s)
				total = total.Add(s)
			}
			fmt.Printf("# cache total: %s\n\n", total)
		case runner != nil:
			if s, ok := runner.CacheStats(); ok {
				fmt.Printf("# cache: %s\n\n", s)
			} else {
				fmt.Printf("# cache: disabled\n\n")
			}
		}
	}

	want := map[string]bool{}
	for _, w := range strings.Split(*only, ",") {
		want[strings.TrimSpace(w)] = true
	}
	show := func(key string) bool { return want["all"] || want[key] }

	if show("table1") {
		fmt.Println(stats.Table1(results))
	}
	if show("fig4") {
		fmt.Println(stats.Figure4(results))
	}
	if show("fig5") {
		fmt.Println(stats.Figure5(results))
	}
	if show("fig6") {
		fmt.Println(stats.Figure6(results))
	}
	if show("fig7") {
		fmt.Println(stats.Figure7(results))
	}
	if show("miss") {
		fmt.Println(stats.MissRates(results))
	}
	if show("summary") {
		fmt.Println(stats.Summary(results))
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
	runStoreGC(st, *storeGC)
}

// runStoreGC prunes the artifact store to maxBytes after the run (a
// no-op without -store/-storegc).
func runStoreGC(st *store.Store, maxBytes int64) {
	if st == nil || maxBytes <= 0 {
		return
	}
	gc, err := st.GC(maxBytes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments: store gc:", err)
		os.Exit(1)
	}
	fmt.Printf("# store gc: removed %d entries (%d bytes); %d entries (%d bytes) remain\n",
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
// the path automaton's node count and successor-table mode.
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
			m := "dense"
			if !a.Dense {
				m = "map"
			}
			fmt.Printf("    proc %-3d %6d nodes  succ-table %s\n", a.Proc, a.Nodes, m)
		}
	}
}

// runAblations measures how the design choices DESIGN.md calls out
// contribute to the path-based result: profile depth, the three §2.3
// compaction optimizations, and footnote 2's upward trace growth.
// Reported per configuration: geometric mean of P4/M4 ideal cycles
// over the ablation benchmark set.
//
// All configurations share one content-addressed cache, so configs
// that resolve to identical formation inputs (depth=15 vs baseline)
// collapse to one laid-out compile per benchmark and scheme.
// With -store, the shared cache is disk-backed, so a repeated sweep
// starts warm.
func runAblations(benches string, jobs int, cstats, nocache bool, checkMode pipeline.CheckMode, validateMode pipeline.ValidateMode, st *store.Store) {
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
		config{"baseline", pipeline.Options{}},
	)
	fmt.Printf("# ablations over %v (geomean of P4/M4 ideal cycles; lower favors P4)\n\n", names)
	fmt.Printf("%-14s %10s %14s\n", "config", "P4/M4", "P4 cycles (K)")
	shared := pipeline.NewCache()
	if st != nil {
		shared = pipeline.NewDiskCache(st)
	}
	for _, c := range configs {
		c.opts.Parallelism = jobs
		c.opts.ProfileCache = shared
		c.opts.DisableProfileCache = nocache
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
	}
	if cstats && !nocache {
		fmt.Printf("\n# cache: %s\n", shared.Stats())
	}
}
