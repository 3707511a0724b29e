// Package interp executes IR programs. It plays two roles in the
// reproduction, mirroring the two uses of execution in Young and
// Smith's methodology (MICRO-31, 1998, §3):
//
//  1. Profiling runs: a BatchObserver receives every executed CFG edge
//     of the original program, in bulk, like the paper's
//     instrumentation pass feeding an analysis routine (§3.1). The path
//     profilers in internal/profile are such observers; a counted run
//     (RunCounted) yields the edge and call-graph profiles without any
//     observer at all.
//  2. Measurement runs ("compiled simulation", §3.2): transformed,
//     scheduled programs carry per-instruction cycle annotations; the
//     interpreter executes them for semantic fidelity while summing
//     cycles, including the cost of superblock early exits, and feeds
//     instruction-fetch addresses to an optional cache model.
//
// Scheduled superblocks are merged "extended blocks" with mid-block
// exits: a control instruction whose continuation slot is ir.NoBlock
// falls through to the next instruction of the same block. A taken
// mid-block exit at schedule cycle c charges c+1 cycles; falling off
// the block's end charges the block's Span.
//
// Both roles run on one pre-decoded ("threaded-code") engine: each
// program is decoded once into a flat representation — dense block
// index ranges over a per-procedure instruction array, registers
// renumbered into dense frame slots, branch targets resolved to block
// indices, per-instruction exit cycles and superblock exit units
// precomputed — and the decode is memoized on the program itself, so
// repeated runs of one build (reference, layout-profiling,
// measurement, benchmarking iterations) share it. The original
// switch-walk engine survives only as the test oracle in
// reference_test.go; the differential tests in decode_test.go pin the
// two byte-identical.
package interp

import (
	"fmt"

	"pathsched/internal/ir"
)

// EdgeRec is one executed intra-procedure CFG edge, as delivered in
// bulk to a BatchObserver.
type EdgeRec struct {
	From, To ir.BlockID
}

// BatchObserver is the interpreter's one event interface: instead of
// one interface dispatch per executed edge, the engine appends edge
// records to a fixed buffer and delivers them in chunks. The stream
// encodes a run's block-level control flow losslessly: BeginProc(p,
// entry) starts an activation of p at its entry block, each EdgeRec{f,
// t} is an executed edge f→t and the entry of t, and EndProc(p) is the
// activation's return. Batches never span activations: the engine
// flushes pending records before every BeginProc and EndProc, so all
// records of one EdgeBatch belong to the activation of the closest
// preceding BeginProc, in execution order. The engine's batch stream
// equals, call for call, what the seed engine kept as the test oracle
// produces through the same buffer; the differential tests in
// batch_test.go pin this.
type BatchObserver interface {
	// BeginProc fires when an activation begins; entry is its entry
	// block, already "entered" (no separate record is delivered for it).
	BeginProc(p ir.ProcID, entry ir.BlockID)
	// EndProc fires when an activation returns.
	EndProc(p ir.ProcID)
	// EdgeBatch delivers executed edges of the current activation of p
	// in execution order. recs is reused across calls; implementations
	// must not retain it.
	EdgeBatch(p ir.ProcID, recs []EdgeRec)
}

// FetchSink models the instruction-fetch side of the memory system.
// FetchRange is called with a half-open byte range of fetched code and
// returns the stall cycles it induced.
type FetchSink interface {
	FetchRange(start, end int64) int64
}

// Config controls a run.
type Config struct {
	// MaxSteps bounds executed instructions (0 means a generous
	// default); exceeding it aborts the run with an error, which keeps
	// buggy transforms from hanging the test suite. The bound is a
	// budget, not an exact trip count: the pre-decoded engine checks it
	// once per basic block against the block's full length, so a run
	// may be aborted up to one block-length short of the limit.
	MaxSteps int64
	// MaxDepth bounds the call stack (0 means a generous default).
	MaxDepth int
	// Batch, when non-nil, receives control-flow events in bulk (see
	// BatchObserver).
	Batch BatchObserver
	// Fetch, when non-nil, receives instruction-fetch address ranges
	// and contributes stall cycles (the I-cache model).
	Fetch FetchSink
}

// Result summarizes a run.
type Result struct {
	Ret    int64   // value returned by main
	Output []int64 // values emitted by OpEmit, in order

	DynInstrs   int64 // instructions executed (speculated work included)
	DynBranches int64 // conditional branches executed (br, switch)
	DynBlocks   int64 // basic-block entries
	Calls       int64 // procedure calls executed
	Cycles      int64 // machine cycles per schedule annotations
	FetchStall  int64 // portion of Cycles contributed by the FetchSink

	// Superblock statistics for Figure 7, accumulated over every entry
	// into a merged superblock: SBEntries counts entries, SBExecuted
	// sums constituent blocks executed before leaving, and SBSize sums
	// the superblock's size in blocks.
	SBEntries  int64
	SBExecuted int64
	SBSize     int64
}

const (
	defaultMaxSteps = int64(2) << 33 // ~17e9; benchmarks stay far below
	defaultMaxDepth = 1 << 14
)

// Run executes prog's main procedure and returns the result. The
// program must be verifier-clean; malformed control flow surfaces as an
// error rather than a panic, as does a procedure naming more than 256
// registers (ErrTooManyRegisters). The decode is cached on prog (see
// EngineFor), so back-to-back runs of one program pay it once.
func Run(prog *ir.Program, cfg Config) (*Result, error) {
	return EngineFor(prog).Run(cfg)
}

// initMem builds the initial data-memory image. Data segments are
// validated rather than trusted: a segment with a negative address or
// one extending past MemSize returns an error instead of panicking in
// copy (regression: interp.Run used to fault on such programs).
func initMem(prog *ir.Program) ([]int64, error) {
	mem := make([]int64, prog.MemSize)
	for i, seg := range prog.Data {
		if seg.Addr < 0 || seg.Addr > prog.MemSize || int64(len(seg.Values)) > prog.MemSize-seg.Addr {
			return nil, fmt.Errorf("interp: data segment %d ([%d,%d)) outside memory of %d words",
				i, seg.Addr, seg.Addr+int64(len(seg.Values)), prog.MemSize)
		}
		copy(mem[seg.Addr:], seg.Values)
	}
	return mem, nil
}
