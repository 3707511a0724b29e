package profile

import "encoding/binary"

// TraceDecisions decodes t's decision indices in execution order, for
// tests that inspect or perturb a recorded trace.
func TraceDecisions(t *BranchTrace) []int {
	var out []int
	for pos := 0; pos < len(t.data); {
		k := int(t.data[pos])
		pos++
		if k == traceEscape {
			v, n := binary.Uvarint(t.data[pos:])
			pos += n
			k += int(v)
		}
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
		out.put(k)
	}
	return out
}
