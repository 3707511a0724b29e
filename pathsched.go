// Package pathsched is a from-scratch reproduction of Cliff Young and
// Michael D. Smith, "Better Global Scheduling Using Path Profiles"
// (MICRO-31, December 1998): superblock formation driven by general
// path profiles instead of CFG edge profiles, evaluated on an
// idealized 8-wide VLIW with a 32KB direct-mapped instruction cache.
//
// The package is the public façade over the full stack:
//
//   - an IR with basic blocks, procedures, and CFG analyses;
//   - an interpreter that both feeds profilers and measures scheduled
//     code cycle-accurately;
//   - edge and general-path profilers (the latter using the paper's
//     lazy O(1)-per-edge automaton);
//   - edge-based (mutual-most-likely + tail duplication + branch
//     target expansion / peeling / unrolling) and path-based
//     (most-likely-path-successor + unified enlargement) superblock
//     formation;
//   - a superblock compactor (renaming, DCE, top-down cycle list
//     scheduling) and register allocation back to the 128-entry file;
//   - Pettis–Hansen code layout and an I-cache model;
//   - the 14-benchmark suite and the experiment harness reproducing
//     the paper's Table 1 and Figures 4–7.
//
// # Quick start
//
// Build a program with the Builder, profile it, compile it under a
// scheme, and run it:
//
//	bd := pathsched.NewBuilder("demo", 64)
//	... // construct procedures and blocks (see examples/quickstart)
//	prog := bd.Finish()
//	profs, _ := pathsched.ProfileProgram(prog)
//	bin, _ := pathsched.Compile(prog, profs, pathsched.SchemeP4)
//	res, _ := pathsched.Execute(bin)
//	fmt.Println(res.Cycles)
//
// For the paper's experiments, use Experiments (or the
// cmd/experiments binary).
package pathsched

import (
	"fmt"

	"pathsched/internal/bench"
	"pathsched/internal/interp"
	"pathsched/internal/ir"
	"pathsched/internal/machine"
	"pathsched/internal/pipeline"
	"pathsched/internal/profile"
	"pathsched/internal/sched"
	"pathsched/internal/stats"
)

// Re-exported IR surface: enough to author programs against the
// public API (the examples use exactly this).
type (
	// Program is a whole compilation unit.
	Program = ir.Program
	// Proc is a procedure; Block a basic block; Instr an instruction.
	Proc  = ir.Proc
	Block = ir.Block
	Instr = ir.Instr
	// Reg names a register; BlockID and ProcID identify blocks and
	// procedures.
	Reg     = ir.Reg
	BlockID = ir.BlockID
	ProcID  = ir.ProcID
	// Builder and friends construct programs fluently.
	Builder      = ir.Builder
	ProcBuilder  = ir.ProcBuilder
	BlockBuilder = ir.BlockBuilder
)

// NewBuilder starts a new program with the given data-memory size in
// 64-bit words.
func NewBuilder(name string, memWords int64) *Builder { return ir.NewBuilder(name, memWords) }

// Scheme names a compilation configuration from the paper's figures.
type Scheme = pipeline.Scheme

// The paper's schemes: BB (basic-block scheduled baseline), M4/M16
// (edge-based, unroll 4/16), P4 (path-based), and P4e (path-based with
// restrained non-loop enlargement).
const (
	SchemeBB  = pipeline.SchemeBB
	SchemeM4  = pipeline.SchemeM4
	SchemeM16 = pipeline.SchemeM16
	SchemeP4  = pipeline.SchemeP4
	SchemeP4e = pipeline.SchemeP4e
)

// Schemes returns every scheme in presentation order.
func Schemes() []Scheme { return pipeline.AllSchemes() }

// Profiles bundles the results of one training run.
type Profiles struct {
	Edge  *profile.EdgeProfile
	Path  *profile.PathProfile
	Calls map[[2]ProcID]int64

	// prog is the profiled program and trace its run's branch
	// decisions, which Compile replays over each compile for its
	// layout weights. ProfileProgram sets both; a Profiles built by
	// hand lacks them and compiles unplaced.
	prog  *Program
	trace *profile.BranchTrace
}

// RunResult is the outcome of executing a program.
type RunResult = interp.Result

// Execute runs a program (scheduled or not) and returns its observable
// behaviour and performance counters.
func Execute(prog *Program) (*RunResult, error) {
	return interp.Run(prog, interp.Config{})
}

// ExecuteWithCache runs a scheduled, laid-out program against the
// paper's 32KB direct-mapped instruction cache and returns the run
// plus the cache's miss rate.
func ExecuteWithCache(prog *Program) (*RunResult, float64, error) {
	cache := machine.NewICache(machine.DefaultICache())
	res, err := interp.Run(prog, interp.Config{Fetch: cache})
	if err != nil {
		return nil, 0, err
	}
	return res, cache.MissRate(), nil
}

// ProfileProgram executes prog once, gathering the edge profile, the
// general path profile (depth 15, §2.2), and the dynamic call graph in
// a single training run (batched path observation, counter-fused edge
// and call-graph reconstruction); the profiles are exact, equal to
// counting every event of the run.
func ProfileProgram(prog *Program) (*Profiles, error) {
	tp, err := profile.Train(prog, profile.PathConfig{})
	if err != nil {
		return nil, fmt.Errorf("pathsched: training run: %w", err)
	}
	return &Profiles{Edge: tp.Edge, Path: tp.Path, Calls: tp.Calls, prog: prog, trace: tp.Trace}, nil
}

// Compile forms superblocks under the given scheme, compacts them for
// the experimental VLIW, and lays the code out (Pettis–Hansen order),
// running the same build the experiments measure: the layout weights
// come from replaying the profiled run over the compile. prog must have
// the profiled program's CFG shape (the program itself, or the same
// program built for another input). Profiles not made by ProfileProgram
// carry no run to replay, so their compile is left unplaced. The input
// program is not modified. The returned program is executable and
// carries cycle annotations, so Execute reports scheduled cycle counts.
func Compile(prog *Program, profs *Profiles, scheme Scheme) (*Program, error) {
	tp := &profile.TrainingProfiles{Edge: profs.Edge, Path: profs.Path, Trace: profs.trace}
	bin, err := pipeline.NewRunner(pipeline.Options{}).Build(scheme, profs.prog, prog, tp)
	if err != nil {
		return nil, fmt.Errorf("pathsched: %w", err)
	}
	return bin, nil
}

// Benchmarks returns the names of the paper's 14-benchmark suite.
func Benchmarks() []string { return bench.Names() }

// ExperimentOptions configures Experiments.
type ExperimentOptions struct {
	// Benchmarks restricts the suite (nil = all 14).
	Benchmarks []string
	// Schemes restricts the schemes (nil = all five).
	Schemes []Scheme
	// RealisticLatency enables multi-cycle loads/multiplies.
	RealisticLatency bool
	// NoCache disables the I-cache simulation.
	NoCache bool
	// Parallelism bounds concurrent benchmark/scheme measurement
	// (0 = GOMAXPROCS, 1 = serial). Results are identical either way.
	Parallelism int
}

// ExperimentResults bundles raw measurements with renderers for every
// table and figure in the paper.
type ExperimentResults struct {
	Results []*pipeline.Result
}

// Experiments runs the paper's evaluation and returns the raw
// measurements; the result's methods render Table 1 and Figures 4–7.
func Experiments(opts ExperimentOptions) (*ExperimentResults, error) {
	mc := machine.Default()
	mc.Realistic = opts.RealisticLatency
	popts := pipeline.Options{Sched: sched.Options{Machine: mc}, Parallelism: opts.Parallelism}
	if !opts.NoCache {
		cache := machine.DefaultICache()
		popts.Cache = &cache
	}
	schemes := opts.Schemes
	if schemes == nil {
		schemes = pipeline.AllSchemes()
	}
	runner := pipeline.NewRunner(popts)
	results, err := runner.RunSuite(opts.Benchmarks, schemes)
	if err != nil {
		return nil, err
	}
	return &ExperimentResults{Results: results}, nil
}

// Table1 renders benchmark statistics (paper Table 1).
func (e *ExperimentResults) Table1() string { return stats.Table1(e.Results) }

// Figure4 renders ideal-cache normalized cycles, P4 vs M4.
func (e *ExperimentResults) Figure4() string { return stats.Figure4(e.Results) }

// Figure5 renders cache-adjusted normalized cycles, P4 and P4e vs M4.
func (e *ExperimentResults) Figure5() string { return stats.Figure5(e.Results) }

// Figure6 renders the unroll-aggressiveness comparison, P4e/M16 vs M4.
func (e *ExperimentResults) Figure6() string { return stats.Figure6(e.Results) }

// Figure7 renders dynamic superblock statistics.
func (e *ExperimentResults) Figure7() string { return stats.Figure7(e.Results) }

// MissRates renders per-scheme I-cache miss rates (§4).
func (e *ExperimentResults) MissRates() string { return stats.MissRates(e.Results) }

// Summary renders geometric-mean normalized cycles per scheme.
func (e *ExperimentResults) Summary() string { return stats.Summary(e.Results) }
