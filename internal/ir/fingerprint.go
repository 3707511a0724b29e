package ir

import (
	"crypto/sha256"
	"encoding/hex"
)

// Digest is a collision-robust structural hash. The pipeline's
// compile/profile cache uses digests as content addresses, so two
// programs (or configs) with equal digests are treated as
// interchangeable; sha256 keeps accidental collisions out of reach the
// same way the Ball–Larus-style path encodings rely on injective
// numbering.
type Digest [sha256.Size]byte

// Short returns an abbreviated hex form for logs and test failures.
func (d Digest) Short() string { return hex.EncodeToString(d[:6]) }

// Fingerprint returns prog's identity: the sha256 of its codec bytes
// (EncodeProgram). The codec is the one definition of which fields
// identify a program and in what order, so the fingerprint is
// order-sensitive exactly where the encoding is — procedures, blocks,
// instructions, Targets, Args and data segments alike — and excludes
// exactly the derived state the codec excludes, which is why
// CloneProgram preserves it.
func Fingerprint(prog *Program) Digest { return sha256.Sum256(EncodeProgram(prog)) }
