// Command pathsched compiles and measures one benchmark under one
// scheme, printing the full measurement. To see the scheduled code,
// run `irtool dump -bench alt -scheme M16`.
//
// Usage:
//
//	pathsched -bench m88k -scheme P4
//	pathsched -bench gcc -scheme P4e -nocache
//	pathsched -list                            # show the suite
package main

import (
	"flag"
	"fmt"
	"os"

	"pathsched/internal/bench"
	"pathsched/internal/machine"
	"pathsched/internal/pipeline"
	"pathsched/internal/sched"
)

func main() {
	var (
		benchName = flag.String("bench", "alt", "benchmark name")
		scheme    = flag.String("scheme", "P4", "scheme: BB, M4, M16, P4e, P4")
		noCache   = flag.Bool("nocache", false, "disable the I-cache simulation")
		realistic = flag.Bool("realistic", false, "multi-cycle load/mul latencies")
		list      = flag.Bool("list", false, "list benchmarks and exit")
	)
	flag.Parse()

	if *list {
		fmt.Printf("%-8s %-10s %s\n", "name", "category", "description")
		for _, b := range bench.All() {
			fmt.Printf("%-8s %-10s %s\n", b.Name, b.Category, b.Description)
		}
		return
	}

	b := bench.ByName(*benchName)
	if b == nil {
		fmt.Fprintf(os.Stderr, "pathsched: unknown benchmark %q (try -list)\n", *benchName)
		os.Exit(1)
	}
	mc := machine.Default()
	mc.Realistic = *realistic
	opts := pipeline.Options{Sched: sched.Options{Machine: mc}}
	if !*noCache {
		cache := machine.DefaultICache()
		opts.Cache = &cache
	}
	runner := pipeline.NewRunner(opts)
	schemes := []pipeline.Scheme{pipeline.SchemeBB, pipeline.Scheme(*scheme)}
	if *scheme == "BB" {
		schemes = schemes[:1]
	}
	res, err := runner.RunBenchmark(b, schemes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pathsched:", err)
		os.Exit(1)
	}

	fmt.Printf("benchmark  %s — %s (%s)\n", res.Name, res.Description, res.Category)
	fmt.Printf("test input %s\n", b.Test.Label)
	fmt.Printf("orig size  %.1f KB\n\n", float64(res.OrigCodeBytes)/1024)
	for _, s := range schemes {
		m := res.ByScheme[s]
		fmt.Printf("[%s]\n", s)
		fmt.Printf("  cycles        %12d (ideal %d + fetch stall %d)\n", m.Cycles, m.IdealCycles, m.FetchStall)
		fmt.Printf("  instructions  %12d   branches %d\n", m.DynInstrs, m.DynBranches)
		fmt.Printf("  code size     %12.1f KB\n", float64(m.CodeBytes)/1024)
		if m.CacheAccesses > 0 {
			fmt.Printf("  i-cache       %12.2f%% miss (%d/%d)\n", m.MissRate*100, m.CacheMisses, m.CacheAccesses)
		}
		if m.SBEntries > 0 {
			fmt.Printf("  superblocks   %12.2f blocks executed per entry (size %.2f)\n",
				m.AvgBlocksExecuted, m.AvgSBSize)
		}
		fmt.Printf("  formation     %+v\n", m.FormStats)
	}
	if bb, ok := res.ByScheme[pipeline.SchemeBB]; ok && len(schemes) > 1 {
		m := res.ByScheme[schemes[1]]
		fmt.Printf("\nspeedup vs BB: %.3fx (cycles %d -> %d)\n",
			float64(bb.Cycles)/float64(m.Cycles), bb.Cycles, m.Cycles)
	}
}
