package profile

import (
	"pathsched/internal/interp"
	"pathsched/internal/ir"
)

// TraceDecisions decodes t's decision indices in execution order, for
// tests that inspect or perturb a recorded trace.
func TraceDecisions(t *BranchTrace) []int {
	var out []int
	for pos := 0; pos < len(t.data); {
		k, n := interp.ReadDecision(t.data[pos:])
		if n <= 0 {
			panic("profile: malformed branch trace")
		}
		pos += n
		out = append(out, k)
	}
	return out
}

// TraceBlocks returns the block count t recorded.
func TraceBlocks(t *BranchTrace) int64 { return t.blocks }

// WithDecisions returns a trace of the given block count that records
// ds.
func WithDecisions(ds []int, blocks int64) *BranchTrace {
	out := &BranchTrace{blocks: blocks}
	for _, k := range ds {
		out.data = interp.AppendDecision(out.data, k)
	}
	return out
}

// OracleTrace runs prog with the per-event trace oracle observing and
// returns the trace it recorded.
func OracleTrace(prog *ir.Program) (*BranchTrace, error) {
	o := newTraceOracle(prog)
	res, err := interp.Run(prog, interp.Config{Batch: perEvent{o}})
	if err != nil {
		return nil, err
	}
	return &BranchTrace{data: o.data, blocks: res.DynBlocks}, nil
}
