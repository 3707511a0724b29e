package profile

import (
	"fmt"

	"pathsched/internal/interp"
	"pathsched/internal/ir"
)

// Counter-fused profiling: the engine's per-exit visit counters
// (interp.RunCounted) carry the complete point profile of a run, so
// the edge and call-graph profiles are reconstructed after the fact
// instead of observing every event. Train and PointProfiles below are
// the entry points the pipeline uses. Reconstruction is exact: the
// profiles (and their serialized bytes) are identical to what
// per-event counters gather on the same run, which the differential
// tests in fused_test.go pin against per-event oracles.

// EdgeProfileFromCounts builds the edge profile of a counted run from
// its counters. Determinism: blocks and edges are inserted in decode
// order (block, exit slot, destination), and every EdgeProfile query
// and its serialization are insertion-order independent.
func EdgeProfileFromCounts(prog *ir.Program, ec *interp.EdgeCounts) *EdgeProfile {
	e := newEdgeProfile(prog)
	for pid, pe := range e.procs {
		p := ir.ProcID(pid)
		pe.entries = ec.Entries(p)
		ec.ForEachBlock(p, func(b ir.BlockID, n int64) { pe.block[b] += n })
		ec.ForEachEdge(p, func(from, to ir.BlockID, n int64) { pe.addEdge(from, to, n) })
	}
	return e
}

// CallCountsFromCounts rebuilds the call-graph profile: dynamic
// caller→callee invocation counts, the input weights for Pettis–Hansen
// procedure placement (§2.3, [15]), one per executed call site, main's
// root entry excluded.
func CallCountsFromCounts(ec *interp.EdgeCounts) map[[2]ir.ProcID]int64 {
	m := map[[2]ir.ProcID]int64{}
	ec.ForEachCall(func(caller, callee ir.ProcID, n int64) {
		m[[2]ir.ProcID{caller, callee}] += n
	})
	return m
}

// Profiling scheme names reported in TrainStats.Scheme.
const (
	TrainSchemeWindow    = "window"   // Young–Smith sliding-window path profiler
	TrainSchemeBallLarus = "ballarus" // Ball–Larus numbering + k-iteration extension
)

// TrainStats describes how a Train run executed, for cmd/experiments
// -profstats.
type TrainStats struct {
	Scheme    string // which profiling scheme produced the path profile
	Batches   int64  // interp.BatchObserver flushes the path profiler took
	Records   int64  // edge records across those flushes
	Automaton []ProcAutomatonStats
}

// TrainingProfiles bundles everything one training run yields. BL is
// non-nil only for TrainBL runs: the raw numbered-path counters behind
// Path, kept for flow checking and diagnostics. Trace is the run's
// branch decisions, from which Replay derives any compile's layout
// weights; it is a function of the training build, so it needs no
// cache key of its own.
type TrainingProfiles struct {
	Edge  *EdgeProfile
	Path  *PathProfile
	Calls map[[2]ir.ProcID]int64
	BL    *BLProfiler
	Trace *BranchTrace
	Stats TrainStats
}

// Train executes prog once and gathers its edge, path and call-graph
// profiles: the path profiler observes batched edge records while the
// edge and call-graph halves are reconstructed from the engine's visit
// counters (no per-event work at all). Decode errors (e.g.
// interp.ErrTooManyRegisters) are returned unwrapped, and a negative
// Depth or MaxBlocks is an error before anything runs.
func Train(prog *ir.Program, cfg PathConfig) (*TrainingProfiles, error) {
	if err := checkBounds(cfg.Depth, cfg.MaxBlocks); err != nil {
		return nil, err
	}
	return train(prog, NewPathProfiler(prog, cfg), TrainSchemeWindow)
}

// TrainBL is Train with the Ball–Larus numbered path profiler in place
// of the window profiler: same batched run and counter-fused edge/call
// reconstruction, but the path half costs one arithmetic add per edge
// record. The returned Path is the decoded k-iteration profile; BL
// keeps the raw numbered counters. Errors are returned as by Train,
// and a negative Iterations is an error before anything runs too.
func TrainBL(prog *ir.Program, cfg BLConfig) (*TrainingProfiles, error) {
	if err := checkBounds(cfg.Depth, cfg.MaxBlocks); err != nil {
		return nil, err
	}
	if cfg.Iterations < 0 {
		return nil, fmt.Errorf("profile: iterations %d is negative", cfg.Iterations)
	}
	bl := NewBLProfiler(prog, cfg)
	tp, err := train(prog, bl, TrainSchemeBallLarus)
	if err != nil {
		return nil, err
	}
	tp.BL = bl
	return tp, nil
}

// pathTrainer is the path-profiling half of a training run. The window
// and Ball–Larus profilers both observe batched runs and report the
// same statistics.
type pathTrainer interface {
	interp.BatchObserver
	Profile() *PathProfile
	BatchStats() (batches, records int64)
	AutomatonStats() []ProcAutomatonStats
}

// train is the one training driver behind Train and TrainBL: the path
// profiler observes the run's batched edge stream, and the engine's
// counters and decision record give the rest.
func train(prog *ir.Program, pp pathTrainer, scheme string) (*TrainingProfiles, error) {
	res, ec, err := interp.EngineFor(prog).RunCounted(interp.Config{Batch: pp})
	if err != nil {
		return nil, err
	}
	tp := &TrainingProfiles{
		Edge:  EdgeProfileFromCounts(prog, ec),
		Path:  pp.Profile(),
		Calls: CallCountsFromCounts(ec),
		Trace: traceOf(res, ec),
		Stats: TrainStats{Scheme: scheme, Automaton: pp.AutomatonStats()},
	}
	tp.Stats.Batches, tp.Stats.Records = pp.BatchStats()
	return tp, nil
}

// PointProfiles executes prog once and gathers only its edge and
// call-graph profiles. The run carries no observer at all (pure
// counter-fused reconstruction), which is what irtool wants and what
// the replay differentials compare Replay against. Errors are returned
// as by Train.
func PointProfiles(prog *ir.Program) (*EdgeProfile, map[[2]ir.ProcID]int64, error) {
	_, ec, err := interp.EngineFor(prog).RunCounted(interp.Config{})
	if err != nil {
		return nil, nil, err
	}
	return EdgeProfileFromCounts(prog, ec), CallCountsFromCounts(ec), nil
}
