package core

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"

	"pathsched/internal/ir"
)

// Fingerprint returns a stable digest of every config field that
// influences the formed program: the method and all selection,
// duplication, and enlargement thresholds.
//
// Two inputs are deliberately excluded and must be keyed separately by
// callers that use the digest as a cache key:
//
//   - Edge and Path carry the training profiles. They are functions of
//     the pristine training build and the profiling parameters, so the
//     pipeline keys them as (pristine-build fingerprint, profiling
//     scheme and its parameters) alongside this digest.
//   - Parallelism only changes how the work is scheduled; formation is
//     pinned worker-count-independent, so it cannot affect the output.
func (c Config) Fingerprint() ir.Digest {
	h := sha256.New()
	word(h, uint64(len("pathsched-core-cfg-v1")))
	h.Write([]byte("pathsched-core-cfg-v1"))
	word(h, uint64(c.Method))
	word(h, uint64(c.UnrollFactor))
	word(h, uint64(c.MaxLoopHeads))
	wbool(h, c.StopNonLoopAtFirstHead)
	word(h, uint64(c.MinExecFreq))
	word(h, math.Float64bits(c.CompletionMin))
	word(h, math.Float64bits(c.ExpandProb))
	word(h, uint64(c.MaxSBInstrs))
	wbool(h, c.GrowUpward)

	var d ir.Digest
	h.Sum(d[:0])
	return d
}

func word(h hash.Hash, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	h.Write(buf[:])
}

func wbool(h hash.Hash, b bool) {
	if b {
		word(h, 1)
	} else {
		word(h, 0)
	}
}
