package profile

import (
	"pathsched/internal/interp"
	"pathsched/internal/ir"
)

// Counter-fused profiling: the decoded engine's per-exit visit
// counters (interp.RunCounted) carry the complete point profile of a
// run, so the edge and call-graph profilers can be reconstructed after
// the fact instead of observing every event. Train and PointProfiles
// below are the entry points the pipeline uses — they pick the fastest
// run mode the program supports and fall back to per-event observers
// only for wide-register programs the decoded engine cannot execute.
// Reconstruction is exact: the profiles (and their serialized bytes)
// are identical to what the per-event observers would have gathered,
// which the differential tests in fused_test.go pin.

// EdgeProfilerFromCounts rebuilds the edge profiler a per-event run
// would have produced from a counted run's counters. Determinism:
// blocks and edges are inserted in decode order (block, exit slot,
// destination), and every EdgeProfile query and its serialization are
// insertion-order independent.
func EdgeProfilerFromCounts(prog *ir.Program, ec *interp.EdgeCounts) *EdgeProfiler {
	ep := NewEdgeProfiler(prog)
	for pid := range ep.procs {
		p := ir.ProcID(pid)
		pe := ep.procs[pid]
		pe.entries = ec.Entries(p)
		ec.ForEachBlock(p, func(b ir.BlockID, n int64) { pe.addBlock(b, n) })
		ec.ForEachEdge(p, func(from, to ir.BlockID, n int64) { pe.addEdge(from, to, n) })
	}
	return ep
}

// CallCountsFromCounts rebuilds the call-graph profile (dynamic
// caller→callee invocation counts, CallGraphProfiler semantics: one
// per executed call site, main's root entry excluded).
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

// TrainStats describes how a Train (or PointProfiles) run executed,
// for cmd/experiments -profstats.
type TrainStats struct {
	Scheme    string // which profiling scheme produced the path profile
	Fused     bool   // edge/call profiles reconstructed from engine counters
	Batched   bool   // path profiler fed through interp.BatchObserver
	Batches   int64
	Records   int64
	Automaton []ProcAutomatonStats
}

// TrainingProfiles bundles everything one training run yields. BL is
// non-nil only for TrainBL runs: the raw numbered-path counters behind
// Path, kept for flow checking and diagnostics.
type TrainingProfiles struct {
	Edge  *EdgeProfile
	Path  *PathProfile
	Calls map[[2]ir.ProcID]int64
	BL    *BLProfiler
	Stats TrainStats
}

// Train executes prog once and gathers its edge, path and call-graph
// profiles, using the fastest mode the program supports: on decodable
// programs the path profiler observes batched edge records while the
// edge and call-graph halves are reconstructed from the engine's visit
// counters (no per-event work at all); wide-register programs fall
// back to the legacy per-event observers on the reference engine. Both
// modes produce identical profiles.
func Train(prog *ir.Program, cfg PathConfig) (*TrainingProfiles, error) {
	return train(prog, NewPathProfiler(prog, cfg), TrainSchemeWindow)
}

// TrainBL is Train with the Ball–Larus numbered path profiler in place
// of the window profiler: same run modes (batched records on decodable
// programs, per-event observers on fallback programs), same
// counter-fused edge/call reconstruction, but the path half costs one
// arithmetic add per edge record. The returned Path is the decoded
// k-iteration profile; BL keeps the raw numbered counters.
func TrainBL(prog *ir.Program, cfg BLConfig) (*TrainingProfiles, error) {
	bl := NewBLProfiler(prog, cfg)
	tp, err := train(prog, bl, TrainSchemeBallLarus)
	if err != nil {
		return nil, err
	}
	tp.BL = bl
	return tp, nil
}

// pathTrainer is the path-profiling half of a training run. The window
// and Ball–Larus profilers both observe per-event or batched runs and
// report the same statistics.
type pathTrainer interface {
	interp.Observer
	interp.BatchObserver
	Profile() *PathProfile
	BatchStats() (batches, records int64)
	AutomatonStats() []ProcAutomatonStats
}

// train is the one training driver behind Train and TrainBL.
func train(prog *ir.Program, pp pathTrainer, scheme string) (*TrainingProfiles, error) {
	tp := &TrainingProfiles{Stats: TrainStats{Scheme: scheme}}
	eng := interp.EngineFor(prog)
	if eng.Fallback() {
		ep := NewEdgeProfiler(prog)
		cg := NewCallGraphProfiler()
		if _, err := interp.Run(prog, interp.Config{Observer: Multi{ep, pp, cg}}); err != nil {
			return nil, err
		}
		tp.Edge, tp.Calls = ep.Profile(), cg.Counts()
	} else {
		_, ec, err := eng.RunCounted(interp.Config{Batch: pp})
		if err != nil {
			return nil, err
		}
		tp.Edge, tp.Calls = EdgeProfilerFromCounts(prog, ec).Profile(), CallCountsFromCounts(ec)
		tp.Stats.Fused, tp.Stats.Batched = true, true
		tp.Stats.Batches, tp.Stats.Records = pp.BatchStats()
	}
	tp.Path = pp.Profile()
	tp.Stats.Automaton = pp.AutomatonStats()
	return tp, nil
}

// PointProfiles executes prog once and gathers only its edge and
// call-graph profiles — on decodable programs the run carries no
// observer at all (pure counter-fused reconstruction), which is what
// layout-profiling runs want.
func PointProfiles(prog *ir.Program) (*EdgeProfile, map[[2]ir.ProcID]int64, error) {
	eng := interp.EngineFor(prog)
	if eng.Fallback() {
		lep := NewEdgeProfiler(prog)
		cg := NewCallGraphProfiler()
		if _, err := interp.Run(prog, interp.Config{Observer: Multi{lep, cg}}); err != nil {
			return nil, nil, err
		}
		return lep.Profile(), cg.Counts(), nil
	}
	_, ec, err := eng.RunCounted(interp.Config{})
	if err != nil {
		return nil, nil, err
	}
	return EdgeProfilerFromCounts(prog, ec).Profile(), CallCountsFromCounts(ec), nil
}
