package pipeline

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"pathsched/internal/core"
	"pathsched/internal/ir"
	"pathsched/internal/profile"
	"pathsched/internal/sched"
	"pathsched/internal/validate"
)

// Disk tier of the cache: serialization of the two cache value types
// and the memory → disk → build lookup that stitches the artifact
// store under the in-memory single-flight maps.
//
// Artifacts must survive a process boundary bit-exactly, which rules
// out the textual IR format (it deliberately drops schedule
// annotations and addresses); compiled masters travel through the
// binary ir codec instead, and are integrity-checked on read by
// re-fingerprinting the decoded program against the fingerprint
// recorded at publish time. Layout profiles travel as the existing
// edge-profile text plus the (sorted) dynamic call counts. Either
// decode failing — framing, fingerprint, or parse — demotes the entry
// to a miss and evicts it; a corrupt store can cost a rebuild, never a
// wrong answer.

// Store entry kinds. Keys under both kinds are hex cache digests:
// compileKey digests for compiles, layoutKey digests (derived from the
// testing compile's key) for layout profiles.
const (
	StoreKindCompile = "compile"
	StoreKindLayout  = "layout"
)

// diskCodec serializes one cache value type for the artifact store.
// Both directions carry the hex cache key: encode records it in the
// artifact header, decode requires it to match, so an entry that ends
// up under the wrong key (however valid in itself) is rejected rather
// than served as a wrong answer.
type diskCodec[V any] struct {
	kind   string
	encode func(V, string) ([]byte, error)
	decode func([]byte, string) (V, error)
}

var compiledCodec = diskCodec[*compiled]{
	kind:   StoreKindCompile,
	encode: encodeCompiled,
	decode: decodeCompiled,
}

var layoutCodec = diskCodec[*layoutProfile]{
	kind:   StoreKindLayout,
	encode: encodeLayout,
	decode: decodeLayout,
}

// lookupTiered is the full two-tier lookup: the in-memory single-flight
// map in front (counting MemHits/Dedups), the disk tier inside the
// build slot (counting DiskHits/ClaimWaits/Builds). Exactly one
// goroutine per process runs the disk path for a given key.
func lookupTiered[V any](c *Cache, m map[ir.Digest]*entry[V], key ir.Digest, cd diskCodec[V], sel func(*CacheStats) *TierStats, build func() (V, error)) (V, error) {
	v, out, err := lookup(c, m, key, func() (V, error) {
		return diskLookup(c, cd, key, sel, build)
	})
	switch out {
	case outcomeHit:
		c.bump(sel, func(t *TierStats) { t.MemHits++ })
	case outcomeDedup:
		c.bump(sel, func(t *TierStats) { t.Dedups++ })
	}
	// outcomeMiss was already classified inside diskLookup as a disk
	// hit or a build.
	return v, err
}

// diskLookup consults the artifact store before building, and
// publishes what it builds. With no store attached it degrades to a
// plain build.
func diskLookup[V any](c *Cache, cd diskCodec[V], key ir.Digest, sel func(*CacheStats) *TierStats, build func() (V, error)) (V, error) {
	if c.store == nil {
		c.bump(sel, func(t *TierStats) { t.Builds++ })
		return build()
	}
	hexKey := hex.EncodeToString(key[:])
	acq, aerr := c.store.Acquire(cd.kind, hexKey)
	if aerr != nil {
		// Store trouble (unwritable directory, ...): degrade to
		// memory-only rather than failing a run the cache exists to
		// speed up.
		c.bump(sel, func(t *TierStats) { t.Builds++ })
		return build()
	}
	if acq.Waited {
		c.bump(sel, func(t *TierStats) { t.ClaimWaits++ })
	}
	if acq.Claim == nil {
		// Published entry: the store already verified framing and
		// sha256; decode re-verifies semantics (fingerprint / parse).
		if v, derr := cd.decode(acq.Data, hexKey); derr == nil {
			c.bump(sel, func(t *TierStats) { t.DiskHits++ })
			return v, nil
		}
		// Semantically corrupt despite intact framing: evict, rebuild,
		// republish (claimless — a concurrent duplicate publish writes
		// identical bytes).
		c.store.Delete(cd.kind, hexKey)
		c.bump(sel, func(t *TierStats) { t.Builds++ })
		v, err := build()
		if err == nil {
			if p, eerr := cd.encode(v, hexKey); eerr == nil {
				c.store.Put(cd.kind, hexKey, p)
			}
		}
		return v, err
	}
	// We hold the claim: build and publish. Build errors abandon the
	// claim so other processes retry instead of inheriting a failure
	// that may be local (errors stay cached in this process's memory
	// tier as before).
	c.bump(sel, func(t *TierStats) { t.Builds++ })
	v, err := build()
	if err != nil {
		acq.Claim.Abandon()
		return v, err
	}
	if p, eerr := cd.encode(v, hexKey); eerr == nil {
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
	switch kind {
	case StoreKindCompile:
		_, err := decodeCompiled(payload, key)
		return err
	case StoreKindLayout:
		_, err := decodeLayout(payload, key)
		return err
	default:
		return fmt.Errorf("pipeline: unknown artifact kind %q", kind)
	}
}

// compiledHeader is the JSON side-car of a compiled artifact: the
// fields of compiled that are not the program, plus the cache key it
// was published under and the master's fingerprint for the read-side
// integrity checks.
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

// encodeCompiled fingerprints the master for the read-side integrity
// check: only the disk tier needs the digest, so memory-only runs never
// compute it.
func encodeCompiled(c *compiled, key string) ([]byte, error) {
	fp := ir.Fingerprint(c.master)
	return frame(compiledHeader{
		Key:    key,
		FP:     hex.EncodeToString(fp[:]),
		Stats:  c.stats,
		Gap:    c.gap,
		VStats: c.vstats,
	}, ir.EncodeProgram(c.master))
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
	master, err := ir.DecodeProgram(body)
	if err != nil {
		return nil, err
	}
	// The integrity check the whole tier rests on: the decoded program
	// must re-fingerprint to what the publisher fingerprinted. This
	// catches anything the store's framing sha cannot — a codec bug, a
	// payload swapped whole between keys — because the fingerprint is
	// recomputed from the decoded structure, not read from the entry.
	fp := ir.Fingerprint(master)
	if hex.EncodeToString(fp[:]) != hdr.FP {
		return nil, fmt.Errorf("pipeline: compiled artifact fingerprint mismatch")
	}
	return &compiled{master: master, stats: hdr.Stats, gap: hdr.Gap, vstats: hdr.VStats}, nil
}

// layoutHeader is the JSON side-car of a layout-profile artifact; the
// body is the edge profile's canonical text form.
type layoutHeader struct {
	Key    string
	NProcs int
	Calls  [][3]int64 // (caller, callee, count), sorted
}

func encodeLayout(lp *layoutProfile, key string) ([]byte, error) {
	hdr := layoutHeader{Key: key, NProcs: lp.prof.NProcs()}
	for k, n := range lp.calls { //lint:ordered — collected then sorted below
		hdr.Calls = append(hdr.Calls, [3]int64{int64(k[0]), int64(k[1]), n})
	}
	// Map iteration order is not deterministic; published bytes must
	// be, so identical profiles publish identical entries.
	sort.Slice(hdr.Calls, func(i, j int) bool {
		a, b := hdr.Calls[i], hdr.Calls[j]
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		return a[1] < b[1]
	})
	return frame(hdr, []byte(lp.prof.WriteText()))
}

func decodeLayout(payload []byte, key string) (*layoutProfile, error) {
	var hdr layoutHeader
	body, err := unframe(payload, &hdr)
	if err != nil {
		return nil, err
	}
	if hdr.Key != key {
		return nil, fmt.Errorf("pipeline: layout artifact key mismatch (header %.16s..., entry %.16s...)", hdr.Key, key)
	}
	if hdr.NProcs < 0 {
		return nil, fmt.Errorf("pipeline: layout artifact: negative proc count")
	}
	prof, err := profile.ParseEdgeProfile(hdr.NProcs, string(body))
	if err != nil {
		return nil, err
	}
	calls := make(map[[2]ir.ProcID]int64, len(hdr.Calls))
	for _, c := range hdr.Calls {
		calls[[2]ir.ProcID{ir.ProcID(c[0]), ir.ProcID(c[1])}] = c[2]
	}
	return &layoutProfile{calls: calls, prof: prof}, nil
}
