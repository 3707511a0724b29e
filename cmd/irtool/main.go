// Command irtool works with the textual IR format: dump a benchmark
// (optionally after compilation), verify a file, run a file, or
// profile a file and print path statistics.
//
// Usage:
//
//	irtool dump -bench wc > wc.ir            # architectural program
//	irtool dump -bench wc -scheme P4         # compiled (annotations dropped)
//	irtool verify wc.ir
//	irtool check wc.ir                       # semantic checks (def-before-use, schedules)
//	irtool check -edge e.prof -path p.prof wc.ir   # + profile flow conservation
//	irtool run wc.ir
//	irtool validate -scheme P4 wc.ir         # compile + prove equivalence
//	irtool validate -bench wc                # same, all five schemes
//	irtool paths -top 10 wc.ir               # hottest general paths
//	irtool profile -edge e.prof -path p.prof wc.ir   # save profiles
//	irtool compile -scheme P4 -edge e.prof -path p.prof wc.ir > wc.p4.ir
//	irtool store ls -dir .pathsched-store            # list artifact-store entries
//	irtool store verify -dir .pathsched-store        # re-fingerprint every entry
//	irtool store gc -dir .pathsched-store -maxbytes 1000000
//
// profile + compile decouple training from compilation, the standard
// profile-guided build workflow.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"pathsched/internal/bench"
	"pathsched/internal/check"
	"pathsched/internal/interp"
	"pathsched/internal/ir"
	"pathsched/internal/machine"
	"pathsched/internal/profile"
	"pathsched/internal/validate"

	root "pathsched"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "dump":
		dump(args)
	case "verify":
		verify(args)
	case "check":
		checkCmd(args)
	case "run":
		run(args)
	case "validate":
		validateCmd(args)
	case "paths":
		paths(args)
	case "profile":
		profileCmd(args)
	case "compile":
		compileCmd(args)
	case "dot":
		dotCmd(args)
	case "trace":
		traceCmd(args)
	case "store":
		storeCmd(args)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: irtool {dump|verify|check|run|validate|paths|profile|compile|dot|trace|store} [flags] [file.ir]")
	os.Exit(2)
}

// dotCmd renders a procedure's CFG as Graphviz DOT, with dynamic edge
// weights from a run.
func dotCmd(args []string) {
	fs := flag.NewFlagSet("dot", flag.ExitOnError)
	procName := fs.String("proc", "main", "procedure to render")
	weights := fs.Bool("weights", true, "run the program and label edges with counts")
	_ = fs.Parse(args)
	prog := loadFile(fs.Args())
	p := prog.ProcByName(*procName)
	if p == nil {
		fatal(fmt.Errorf("no procedure %q", *procName))
	}
	var weight func(from, to ir.BlockID) int64
	if *weights {
		e, _, err := profile.PointProfiles(prog)
		if err != nil {
			fatal(err)
		}
		weight = func(from, to ir.BlockID) int64 { return e.EdgeFreq(p.ID, from, to) }
	}
	fmt.Print(ir.WriteDot(p, weight))
}

// traceCmd prints the first N block-level control-flow events of a
// run: each call, each block entered, each return.
func traceCmd(args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	n := fs.Int("n", 50, "events to print")
	_ = fs.Parse(args)
	prog := loadFile(fs.Args())
	tr := &tracer{limit: *n, prog: prog}
	if _, err := interp.Run(prog, interp.Config{Batch: tr}); err != nil {
		fatal(err)
	}
	if tr.printed >= tr.limit {
		fmt.Printf("... (truncated at %d events)\n", tr.limit)
	}
}

// tracer prints a run's batched events, indented by call depth, until
// it has printed limit of them.
type tracer struct {
	prog    *ir.Program
	limit   int
	printed int
	depth   int
}

// line prints one event, indented by call depth, while under the limit.
func (t *tracer) line(format string, args ...any) {
	if t.printed < t.limit {
		fmt.Printf("%*s%s\n", 2*t.depth, "", fmt.Sprintf(format, args...))
		t.printed++
	}
}

func (t *tracer) BeginProc(p ir.ProcID, entry ir.BlockID) {
	t.line("call %s", t.prog.Proc(p).Name)
	t.depth++
	t.line("  b%d", entry)
}

func (t *tracer) EdgeBatch(p ir.ProcID, recs []interp.EdgeRec) {
	for _, r := range recs {
		t.line("  b%d", r.To)
	}
}

func (t *tracer) EndProc(p ir.ProcID) {
	t.depth--
	t.line("ret  %s", t.prog.Proc(p).Name)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "irtool:", err)
	os.Exit(1)
}

// checkDepth exits 2, before anything runs, on a negative -depth.
func checkDepth(cmd string, depth int) {
	if depth < 0 {
		fmt.Fprintf(os.Stderr, "irtool: %s: -depth %d is negative\n", cmd, depth)
		os.Exit(2)
	}
}

func loadFile(args []string) *ir.Program {
	if len(args) != 1 {
		usage()
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		fatal(err)
	}
	prog, err := ir.ParseText(string(data))
	if err != nil {
		fatal(err)
	}
	return prog
}

func dump(args []string) {
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	benchName := fs.String("bench", "alt", "benchmark to dump")
	scheme := fs.String("scheme", "", "compile first: BB, M4, M16, P4e, P4")
	train := fs.Bool("train", false, "use the training input instead of testing")
	_ = fs.Parse(args)

	b := bench.ByName(*benchName)
	if b == nil {
		fatal(fmt.Errorf("unknown benchmark %q", *benchName))
	}
	in := b.Test
	if *train {
		in = b.Train
	}
	prog := b.Build(in)
	if *scheme != "" {
		profs, err := root.ProfileProgram(b.Build(b.Train))
		if err != nil {
			fatal(err)
		}
		bin, err := root.Compile(prog, profs, root.Scheme(*scheme))
		if err != nil {
			fatal(err)
		}
		prog = bin
	}
	fmt.Print(ir.WriteText(prog))
}

func verify(args []string) {
	prog := loadFile(args)
	fmt.Printf("ok: %s — %d procs, %d blocks, %d instructions, %d data words\n",
		prog.Name, len(prog.Procs), totalBlocks(prog), prog.NumInstrs(), prog.MemSize)
}

// checkCmd runs the semantic analyses of internal/check offline:
// structural verification, def-before-use (undefined virtual reads are
// always errors; physical reads are judged against the program's own
// baseline), schedule legality for any scheduled blocks, and — when
// profile files are supplied — flow conservation.
func checkCmd(args []string) {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	edgeIn := fs.String("edge", "", "edge profile to check flow conservation against")
	pathIn := fs.String("path", "", "path profile to check internal consistency")
	realistic := fs.Bool("realistic", false, "check schedules against multi-cycle load/mul latencies")
	_ = fs.Parse(args)
	prog := loadFile(fs.Args())
	if err := ir.Verify(prog); err != nil {
		fatal(err)
	}
	mc := machine.Default()
	mc.Realistic = *realistic

	vs := check.DefBeforeUse(prog, check.BaselineOf(prog))
	vs = append(vs, check.Schedules(prog, mc)...)
	var eprof *profile.EdgeProfile
	if *edgeIn != "" {
		data, err := os.ReadFile(*edgeIn)
		if err != nil {
			fatal(err)
		}
		if eprof, err = profile.ParseEdgeProfile(prog, string(data)); err != nil {
			fatal(err)
		}
		vs = append(vs, check.EdgeFlow(prog, eprof)...)
	}
	if *pathIn != "" {
		data, err := os.ReadFile(*pathIn)
		if err != nil {
			fatal(err)
		}
		pprof, err := profile.ParsePathProfile(prog, string(data))
		if err != nil {
			fatal(err)
		}
		vs = append(vs, check.PathFlow(prog, pprof, eprof)...)
	}
	if err := check.Err("offline", vs); err != nil {
		fatal(err)
	}
	fmt.Printf("ok: %s — %d procs, %d blocks, %d instructions semantically checked\n",
		prog.Name, len(prog.Procs), totalBlocks(prog), prog.NumInstrs())
}

func totalBlocks(p *ir.Program) int {
	n := 0
	for _, pr := range p.Procs {
		n += len(pr.Blocks)
	}
	return n
}

func run(args []string) {
	prog := loadFile(args)
	res, err := interp.Run(prog, interp.Config{})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("ret      %d\n", res.Ret)
	fmt.Printf("output   %v\n", res.Output)
	fmt.Printf("cycles   %d\n", res.Cycles)
	fmt.Printf("instrs   %d\n", res.DynInstrs)
	fmt.Printf("branches %d\n", res.DynBranches)
}

// validateCmd compiles a program in-process and proves the result
// semantically equivalent to the pristine input with the translation
// validator. Compilation must happen here rather than on a dumped file
// pair: the textual IR format drops the schedule annotations
// (Cycles/Units/UnitOrigins) the proof consumes, so validating parsed
// files could only ever report every procedure bounded.
func validateCmd(args []string) {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	benchName := fs.String("bench", "", "benchmark to compile and validate (alternative to a file)")
	scheme := fs.String("scheme", "", "single scheme: BB, M4, M16, P4e, P4 (default: all five)")
	verbose := fs.Bool("v", false, "print per-procedure verdicts")
	depthB := fs.Int("depthbudget", 0, "trace blocks co-executed per merged block (0 = default)")
	pathB := fs.Int("pathbudget", 0, "exit cuts checked per procedure (0 = default)")
	nodeB := fs.Int("nodebudget", 0, "expression-graph nodes per procedure (0 = default)")
	_ = fs.Parse(args)

	var pristine, train *ir.Program
	if *benchName != "" {
		if len(fs.Args()) != 0 {
			fatal(fmt.Errorf("validate: -bench and a file are mutually exclusive"))
		}
		b := bench.ByName(*benchName)
		if b == nil {
			fatal(fmt.Errorf("unknown benchmark %q", *benchName))
		}
		pristine, train = b.Build(b.Test), b.Build(b.Train)
	} else {
		pristine = loadFile(fs.Args())
		train = pristine
	}
	profs, err := root.ProfileProgram(train)
	if err != nil {
		fatal(err)
	}
	schemes := root.Schemes()
	if *scheme != "" {
		schemes = []root.Scheme{root.Scheme(*scheme)}
	}
	opts := validate.Options{DepthBudget: *depthB, PathBudget: *pathB, NodeBudget: *nodeB}
	bad := false
	for _, s := range schemes {
		bin, err := root.Compile(pristine, profs, s)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", s, err))
		}
		rep, vs := check.Equiv(pristine, bin, opts)
		fmt.Printf("%-4s %s\n", s, rep.Stats)
		if *verbose {
			for _, pr := range rep.Procs {
				line := fmt.Sprintf("  %-12s %-8s %d blocks, %d cuts, %d nodes",
					pr.Proc, pr.Verdict, pr.Blocks, pr.Cuts, pr.Nodes)
				if pr.Reason != "" {
					line += " — " + pr.Reason
				}
				fmt.Println(line)
			}
		}
		if err := check.Err("validate", vs); err != nil {
			fmt.Fprintf(os.Stderr, "irtool: %s: %v\n", s, err)
			bad = true
		}
	}
	if bad {
		os.Exit(1)
	}
}

// profileCmd executes the program once, writing edge and/or path
// profiles to files: the path profiler observes the run's batches, and
// the edge profile is rebuilt from its counters.
func profileCmd(args []string) {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	edgeOut := fs.String("edge", "", "write edge profile here")
	pathOut := fs.String("path", "", "write path profile here")
	depth := fs.Int("depth", 15, "path depth in branches")
	_ = fs.Parse(args)
	checkDepth("profile", *depth)
	if *edgeOut == "" && *pathOut == "" {
		fatal(fmt.Errorf("profile: need -edge and/or -path output files"))
	}
	prog := loadFile(fs.Args())
	pp := profile.NewPathProfiler(prog, profile.PathConfig{Depth: *depth})
	_, ec, err := interp.EngineFor(prog).RunCounted(interp.Config{Batch: pp})
	if err != nil {
		fatal(err)
	}
	if *edgeOut != "" {
		if err := os.WriteFile(*edgeOut, []byte(profile.EdgeProfileFromCounts(prog, ec).WriteText()), 0o644); err != nil {
			fatal(err)
		}
	}
	if *pathOut != "" {
		if err := os.WriteFile(*pathOut, []byte(pp.WriteText()), 0o644); err != nil {
			fatal(err)
		}
	}
	nodes, edges := pp.Stats()
	fmt.Fprintf(os.Stderr, "profiled %s: %d distinct paths over %d dynamic edges\n",
		prog.Name, nodes, edges)
}

// compileCmd forms and compacts a program from saved profiles and
// prints the compiled IR.
func compileCmd(args []string) {
	fs := flag.NewFlagSet("compile", flag.ExitOnError)
	scheme := fs.String("scheme", "P4", "BB, M4, M16, P4e, P4")
	edgeIn := fs.String("edge", "", "edge profile file")
	pathIn := fs.String("path", "", "path profile file")
	_ = fs.Parse(args)
	prog := loadFile(fs.Args())

	// Profiles read from files carry no run to replay for layout
	// weights, so the compile is printed unplaced; the text format
	// shows no addresses anyway.
	profs := &root.Profiles{}
	if *edgeIn != "" {
		data, err := os.ReadFile(*edgeIn)
		if err != nil {
			fatal(err)
		}
		e, err := profile.ParseEdgeProfile(prog, string(data))
		if err != nil {
			fatal(err)
		}
		profs.Edge = e
	}
	if *pathIn != "" {
		data, err := os.ReadFile(*pathIn)
		if err != nil {
			fatal(err)
		}
		p, err := profile.ParsePathProfile(prog, string(data))
		if err != nil {
			fatal(err)
		}
		profs.Path = p
	}
	if profs.Edge == nil {
		// Formation needs an edge profile; derive one by running the
		// program if absent.
		e, _, err := profile.PointProfiles(prog)
		if err != nil {
			fatal(err)
		}
		profs.Edge = e
	}
	bin, err := root.Compile(prog, profs, root.Scheme(*scheme))
	if err != nil {
		fatal(err)
	}
	fmt.Print(ir.WriteText(bin))
}

func paths(args []string) {
	fs := flag.NewFlagSet("paths", flag.ExitOnError)
	top := fs.Int("top", 10, "paths to print per procedure")
	length := fs.Int("len", 4, "path length in blocks")
	depth := fs.Int("depth", 15, "profiling depth in branches")
	_ = fs.Parse(args)
	checkDepth("paths", *depth)
	prog := loadFile(fs.Args())

	tp, err := profile.Train(prog, profile.PathConfig{Depth: *depth})
	if err != nil {
		fatal(err)
	}
	pf := tp.Path
	for _, p := range prog.Procs {
		type hot struct {
			seq  []ir.BlockID
			freq int64
		}
		var hots []hot
		// Enumerate length-N sequences by extending hot blocks greedily
		// breadth-first through observed successors.
		frontier := [][]ir.BlockID{}
		for _, b := range pf.BlocksByFreq(p.ID) {
			frontier = append(frontier, []ir.BlockID{b})
		}
		for step := 1; step < *length; step++ {
			var next [][]ir.BlockID
			for _, seq := range frontier {
				for s := range pf.SuccFreqs(p.ID, seq) {
					ext := append(append([]ir.BlockID{}, seq...), s)
					next = append(next, ext)
				}
			}
			frontier = next
		}
		for _, seq := range frontier {
			if f := pf.Freq(p.ID, seq); f > 0 {
				hots = append(hots, hot{seq, f})
			}
		}
		sort.Slice(hots, func(i, j int) bool {
			if hots[i].freq != hots[j].freq {
				return hots[i].freq > hots[j].freq
			}
			return fmt.Sprint(hots[i].seq) < fmt.Sprint(hots[j].seq)
		})
		if len(hots) > *top {
			hots = hots[:*top]
		}
		if len(hots) == 0 {
			continue
		}
		fmt.Printf("proc %s:\n", p.Name)
		for _, h := range hots {
			fmt.Printf("  %8d  %s\n", h.freq, profile.FmtSeq(h.seq))
		}
	}
}
