package pipeline

import (
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"

	"pathsched/internal/bench"
	"pathsched/internal/ir"
	"pathsched/internal/layout"
	"pathsched/internal/profile"
	"pathsched/internal/store"
)

func TestCacheStatsString(t *testing.T) {
	s := CacheStats{Compile: TierStats{MemHits: 1, DiskHits: 2, Builds: 4, Dedups: 5}}
	want := "compile 2 disk hits / 4 builds"
	if got := s.String(); got != want {
		t.Fatalf("String() = %q, want %q (the compile tier is the only tier, and MemHits and Dedups are always zero)", got, want)
	}
}

// TestCacheHoldsLaidOutBinaries pins what a store entry is: the
// finished binary its scheme measures. Every entry a cold store-backed
// run publishes decodes to a binary carrying the code addresses
// layout.Assign writes from the replayed training weights (not the
// all-zero addresses of an unplaced compile), its size is the one the
// measurement reports, and the store holds one entry per benchmark and
// scheme.
func TestCacheHoldsLaidOutBinaries(t *testing.T) {
	names := []string{"alt", "wc"}
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(Options{Cache: testCache(), Parallelism: 1, ArtifactStore: st})
	res, err := r.RunSuite(names, AllSchemes())
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for i, name := range names {
		b := bench.ByName(name)
		trainProg, testProg := b.Build(b.Train), b.Build(b.Test)
		tp, err := r.train(trainProg)
		if err != nil {
			t.Fatal(err)
		}
		trainFP, testFP := ir.Fingerprint(trainProg), ir.Fingerprint(testProg)
		for _, s := range AllSchemes() {
			cfg, formed, err := r.formConfig(s, tp.Edge, tp.Path)
			if err != nil {
				t.Fatal(err)
			}
			key := r.compileKey(testFP, trainFP, cfg, formed)
			hexKey := hex.EncodeToString(key[:])
			payload, ok := st.Get(StoreKindCompile, hexKey)
			if !ok {
				t.Fatalf("%s/%s: no store entry under the scheme's key", name, s)
			}
			c, err := decodeCompiled(payload, hexKey)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, s, err)
			}
			bin := c.bin
			placed := false
			for _, p := range bin.Procs {
				for _, blk := range p.Blocks {
					placed = placed || blk.Addr != 0
				}
			}
			if !placed {
				t.Errorf("%s/%s: stored binary has no code addresses", name, s)
			}
			// Placing an unplaced copy anew must reproduce the
			// stored binary exactly, addresses included.
			redo := ir.CloneProgram(bin)
			for _, p := range redo.Procs {
				for _, blk := range p.Blocks {
					blk.Addr = 0
				}
			}
			prof, calls, err := profile.Replay(trainProg, redo, tp.Trace)
			if err != nil {
				t.Fatal(err)
			}
			layout.Assign(redo, layout.Input{CallCounts: calls, BlockFreq: prof.BlockFreq, EdgeFreq: prof.EdgeFreq})
			if ir.Fingerprint(redo) != ir.Fingerprint(bin) {
				t.Errorf("%s/%s: stored binary's addresses are not the ones layout.Assign writes", name, s)
			}
			if got, want := bin.CodeBytes(), res[i].ByScheme[s].CodeBytes; got != want {
				t.Errorf("%s/%s: stored binary is %d bytes, the measurement reports %d", name, s, got, want)
			}
			keys[hexKey] = true
		}
	}
	entries, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(keys) {
		t.Fatalf("store holds %d entries, the suite's schemes key %d", len(entries), len(keys))
	}
}

// TestDiskFingerprintMismatchRebuilt re-frames one stored entry under
// its own key with an FP its body does not hash to. Put recomputes the
// store's framing sha and the header keeps the entry's key, so only the
// fingerprint check can reject the entry: VerifyEntry must report the
// mismatch, and a run over the store must rebuild and republish exactly
// that entry and still produce the baseline bytes.
func TestDiskFingerprintMismatchRebuilt(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	run := func() (string, TierStats) {
		t.Helper()
		r := NewRunner(Options{Cache: testCache(), Parallelism: 1, ArtifactStore: st})
		res, err := r.RunSuite([]string{"alt"}, AllSchemes())
		if err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		s, _ := r.CacheStats()
		return string(js), s.Compile
	}
	baseline, _ := run()

	entries, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 2 {
		t.Fatalf("cold run published %d entries, want one per scheme", len(entries))
	}
	key := entries[0].Key
	payload, ok := st.Get(StoreKindCompile, key)
	if !ok {
		t.Fatal("missing entry")
	}
	var hdr compiledHeader
	body, err := unframe(payload, &hdr)
	if err != nil {
		t.Fatal(err)
	}
	hdr.FP = strings.Repeat("0", len(hdr.FP))
	forged, err := frame(hdr, body)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(StoreKindCompile, key, forged); err != nil {
		t.Fatal(err)
	}
	if err := VerifyEntry(StoreKindCompile, key, forged); err == nil || !strings.Contains(err.Error(), "fingerprint mismatch") {
		t.Fatalf("VerifyEntry on a forged FP = %v, want a fingerprint mismatch", err)
	}

	got, s := run()
	if got != baseline {
		t.Fatalf("run over the forged entry diverges:\n--- baseline ---\n%s\n--- forged ---\n%s", baseline, got)
	}
	if s.Builds != 1 || s.DiskHits != int64(len(entries)-1) {
		t.Fatalf("run over the forged entry: %s, want 1 build and %d disk hits", s, len(entries)-1)
	}
	republished, ok := st.Get(StoreKindCompile, key)
	if !ok {
		t.Fatal("rebuilt entry not republished")
	}
	if err := VerifyEntry(StoreKindCompile, key, republished); err != nil {
		t.Fatalf("republished entry: %v", err)
	}
}
