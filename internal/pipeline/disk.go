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

// Artifact-store tier of the pipeline: serialization of laid-out
// binaries and the store lookup a scheme's build runs when a store is
// attached (Options.ArtifactStore).
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

// TierStats counts artifact-store lookup outcomes for one artifact
// kind. Every lookup lands in exactly one of DiskHits or Builds.
//
// MemHits and Dedups are always zero: a run builds each scheme once or
// reads it from the store, so no lookup hits an in-process memo or
// waits on another goroutine's build. ClaimWaits is always zero:
// processes that share a store do not coordinate their builds. The
// three fields remain only because the benchmark harness
// (cmd/bench/harness.go) still reads them.
type TierStats struct {
	MemHits    int64 // always zero
	DiskHits   int64 // decoded and verified from the artifact store
	ClaimWaits int64 // always zero
	Builds     int64 // computed from scratch in this process
	Dedups     int64 // always zero
}

// Add returns the element-wise sum.
func (t TierStats) Add(o TierStats) TierStats {
	return TierStats{
		MemHits:    t.MemHits + o.MemHits,
		DiskHits:   t.DiskHits + o.DiskHits,
		ClaimWaits: t.ClaimWaits + o.ClaimWaits,
		Builds:     t.Builds + o.Builds,
		Dedups:     t.Dedups + o.Dedups,
	}
}

func (t TierStats) String() string {
	return fmt.Sprintf("%d disk hits / %d builds", t.DiskHits, t.Builds)
}

// CacheStats counts a runner's artifact-store lookups.
type CacheStats struct {
	Compile TierStats
	// Layout is always zero: layout replays run inside compile builds
	// and are counted there. The field remains only because the
	// benchmark harness (cmd/bench/harness.go) still reads it.
	Layout TierStats
}

// String renders the counters for the -cachestats report.
func (s CacheStats) String() string {
	return "compile " + s.Compile.String()
}

// compiled is what a scheme's build produces and what a store entry
// holds: the laid-out binary (code addresses assigned; measured in
// place, never mutated once built), the formation stats the
// measurement reports, the compile's translation validation stats,
// which decide whether it is measured by replay (Runner.measure), and,
// when exact scheduling is on, its gap accounting (nil otherwise), so
// a store hit measures and reports as a build would. Every compile is
// validated, and the validated bit in compileKey keeps entries built
// without validation, which carry no stats, from ever being read.
type compiled struct {
	bin    *ir.Program
	stats  core.Stats
	gap    *sched.GapStats
	vstats *validate.Stats
}

// fromStore returns the compile the artifact store holds under key, or
// runs build and publishes what it returns. Both directions of the
// codec carry the hex key: encode records it in the artifact header,
// decode requires it to match, so an entry that ends up under the
// wrong key (however valid in itself) is rejected rather than served
// as a wrong answer.
//
// Processes sharing the store do not coordinate: two that miss one key
// both build it and publish identical bytes through the store's atomic
// Put. A failed publish (an unwritable or full store) only means the
// next process builds the key again; the run itself never fails on it.
func (r *Runner) fromStore(key ir.Digest, build func() (*compiled, error)) (*compiled, error) {
	st := r.opts.ArtifactStore
	hexKey := hex.EncodeToString(key[:])
	if data, ok := st.Get(StoreKindCompile, hexKey); ok {
		// The store already verified framing and sha256; decode
		// re-verifies key binding and fingerprint.
		if v, err := decodeCompiled(data, hexKey); err == nil {
			r.diskHits.Add(1)
			return v, nil
		}
		// Semantically corrupt despite intact framing: evict and
		// rebuild.
		st.Delete(StoreKindCompile, hexKey)
	}
	r.builds.Add(1)
	v, err := build()
	if err != nil {
		return nil, err
	}
	if p, err := encodeCompiled(v, hexKey); err == nil {
		st.Put(StoreKindCompile, hexKey, p)
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
// fields of compiled that are not the program, plus the compile key it
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
// definition). Only the store needs the digest, so storeless runs
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
