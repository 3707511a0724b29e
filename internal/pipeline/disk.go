package pipeline

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"pathsched/internal/core"
	"pathsched/internal/ir"
	"pathsched/internal/sched"
	"pathsched/internal/validate"
)

// Disk tier of the cache: serialization of the cached laid-out
// binaries and the disk lookup that stitches the artifact store under
// the in-memory single-flight map.
//
// Artifacts must survive a process boundary bit-exactly, which rules
// out the textual IR format (it deliberately drops schedule
// annotations and addresses); binaries travel through the binary ir
// codec instead, and are integrity-checked on read by re-fingerprinting
// the decoded program against the fingerprint recorded at publish
// time. A decode failing — framing, key or fingerprint — demotes the
// entry to a miss and evicts it; a corrupt store can cost a rebuild,
// never a wrong answer.

// StoreKindCompile is the one store entry kind; its keys are hex
// compileKey digests.
const StoreKindCompile = "compile"

// diskLookup consults the artifact store before building, and
// publishes what it builds. With no store attached it degrades to a
// plain build. Both directions of the codec carry the hex cache key:
// encode records it in the artifact header, decode requires it to
// match, so an entry that ends up under the wrong key (however valid
// in itself) is rejected rather than served as a wrong answer.
func (c *Cache) diskLookup(key ir.Digest, build func() (*compiled, error)) (*compiled, error) {
	if c.store == nil {
		c.bump(func(t *TierStats) { t.Builds++ })
		return build()
	}
	hexKey := hex.EncodeToString(key[:])
	acq, aerr := c.store.Acquire(StoreKindCompile, hexKey)
	if aerr != nil {
		// Store trouble (unwritable directory, ...): degrade to
		// memory-only rather than failing a run the cache exists to
		// speed up.
		c.bump(func(t *TierStats) { t.Builds++ })
		return build()
	}
	if acq.Waited {
		c.bump(func(t *TierStats) { t.ClaimWaits++ })
	}
	if acq.Claim == nil {
		// Published entry: the store already verified framing and
		// sha256; decode re-verifies key binding and fingerprint.
		if v, derr := decodeCompiled(acq.Data, hexKey); derr == nil {
			c.bump(func(t *TierStats) { t.DiskHits++ })
			return v, nil
		}
		// Semantically corrupt despite intact framing: evict, rebuild,
		// republish (claimless — a concurrent duplicate publish writes
		// identical bytes).
		c.store.Delete(StoreKindCompile, hexKey)
		c.bump(func(t *TierStats) { t.Builds++ })
		v, err := build()
		if err == nil {
			if p, eerr := encodeCompiled(v, hexKey); eerr == nil {
				c.store.Put(StoreKindCompile, hexKey, p)
			}
		}
		return v, err
	}
	// We hold the claim: build and publish. Build errors abandon the
	// claim so other processes retry instead of inheriting a failure
	// that may be local (errors stay cached in this process's memory
	// tier as before).
	c.bump(func(t *TierStats) { t.Builds++ })
	v, err := build()
	if err != nil {
		acq.Claim.Abandon()
		return v, err
	}
	if p, eerr := encodeCompiled(v, hexKey); eerr == nil {
		acq.Claim.Publish(p)
	} else {
		acq.Claim.Abandon()
	}
	return v, nil
}

// VerifyEntry decodes and integrity-checks one store payload of the
// given kind and key (the store entry's filename); irtool's
// `store verify` runs it over the whole store.
func VerifyEntry(kind, key string, payload []byte) error {
	if kind != StoreKindCompile {
		return fmt.Errorf("pipeline: unknown artifact kind %q", kind)
	}
	_, err := decodeCompiled(payload, key)
	return err
}

// compiledHeader is the JSON side-car of a compiled artifact: the
// fields of compiled that are not the program, plus the cache key it
// was published under and FP, the hex sha256 of the body (the binary's
// ir.Fingerprint), for the read-side integrity checks.
type compiledHeader struct {
	Key    string
	FP     string
	Stats  core.Stats
	Gap    *sched.GapStats `json:",omitempty"`
	VStats *validate.Stats `json:",omitempty"`
}

// frame prefixes a JSON header to a binary body with a uvarint length.
func frame(header any, body []byte) ([]byte, error) {
	hdr, err := json.Marshal(header)
	if err != nil {
		return nil, err
	}
	out := binary.AppendUvarint(nil, uint64(len(hdr)))
	out = append(out, hdr...)
	return append(out, body...), nil
}

// unframe splits a payload written by frame.
func unframe(payload []byte, header any) (body []byte, err error) {
	n, w := binary.Uvarint(payload)
	if w <= 0 || n > uint64(len(payload)-w) {
		return nil, fmt.Errorf("pipeline: artifact header framing corrupt")
	}
	if err := json.Unmarshal(payload[w:w+int(n)], header); err != nil {
		return nil, fmt.Errorf("pipeline: artifact header: %w", err)
	}
	return payload[w+int(n):], nil
}

// encodeCompiled encodes the binary once and records the sha256 of
// those bytes as its fingerprint (ir.Fingerprint is that digest by
// definition). Only the disk tier needs the digest, so memory-only runs
// never compute it.
func encodeCompiled(c *compiled, key string) ([]byte, error) {
	body := ir.EncodeProgram(c.bin)
	fp := sha256.Sum256(body)
	return frame(compiledHeader{
		Key:    key,
		FP:     hex.EncodeToString(fp[:]),
		Stats:  c.stats,
		Gap:    c.gap,
		VStats: c.vstats,
	}, body)
}

func decodeCompiled(payload []byte, key string) (*compiled, error) {
	var hdr compiledHeader
	body, err := unframe(payload, &hdr)
	if err != nil {
		return nil, err
	}
	// Key binding: a payload that is valid in itself but filed under a
	// different compile key (a swap, a copy, a botched sync of the
	// store directory) must read as corrupt, not as a wrong program.
	if hdr.Key != key {
		return nil, fmt.Errorf("pipeline: compiled artifact key mismatch (header %.16s..., entry %.16s...)", hdr.Key, key)
	}
	bin, err := ir.DecodeProgram(body)
	if err != nil {
		return nil, err
	}
	// The integrity check the whole tier rests on: the decoded program
	// must re-fingerprint to what the publisher recorded. The
	// fingerprint is the digest of the program's re-encoding, so this
	// tests the codec's round trip on this very entry, and it catches
	// what the store's framing sha cannot — a codec bug, or an entry
	// written under another encoding — because the digest is recomputed
	// from the decoded structure, not read from the entry.
	fp := ir.Fingerprint(bin)
	if hex.EncodeToString(fp[:]) != hdr.FP {
		return nil, fmt.Errorf("pipeline: compiled artifact fingerprint mismatch")
	}
	return &compiled{bin: bin, stats: hdr.Stats, gap: hdr.Gap, vstats: hdr.VStats}, nil
}
