package pipeline

import (
	"encoding/json"
	"strings"
	"testing"

	"pathsched/internal/store"
)

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
	run := func(c *Cache) string {
		t.Helper()
		r := NewRunner(Options{Cache: testCache(), Parallelism: 1, ProfileCache: c})
		res, err := r.RunSuite([]string{"alt"}, AllSchemes())
		if err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(js)
	}
	baseline := run(NewDiskCache(st))

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

	c := NewDiskCache(st)
	if got := run(c); got != baseline {
		t.Fatalf("run over the forged entry diverges:\n--- baseline ---\n%s\n--- forged ---\n%s", baseline, got)
	}
	if s := c.Stats().Compile; s.Builds != 1 || s.DiskHits != int64(len(entries)-1) {
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
