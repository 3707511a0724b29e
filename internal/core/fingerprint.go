package core

import (
	"math"

	"pathsched/internal/ir"
)

// Fingerprint returns a stable digest of every config field that
// influences the formed program: the method and all selection,
// duplication, and enlargement thresholds, framed by ir.Encoder.
//
// Two inputs are deliberately excluded and must be keyed separately by
// callers that use the digest as a cache key:
//
//   - Edge and Path carry the training profiles. They are functions of
//     the pristine training build and the profiling parameters, so the
//     pipeline keys them as (pristine-build fingerprint, profiling
//     scheme and its parameters) alongside this digest.
//   - Parallelism is ignored by Form (see Config), so it cannot affect
//     the output.
func (c Config) Fingerprint() ir.Digest {
	e := ir.NewEncoder("pathsched-core-cfg-v2")
	e.I64(int64(c.Method))
	e.I64(int64(c.UnrollFactor))
	e.I64(int64(c.MaxLoopHeads))
	e.Bool(c.StopNonLoopAtFirstHead)
	e.I64(c.MinExecFreq)
	e.U64(math.Float64bits(c.CompletionMin))
	e.U64(math.Float64bits(c.ExpandProb))
	e.I64(int64(c.MaxSBInstrs))
	e.Bool(c.GrowUpward)
	return e.Sum()
}
