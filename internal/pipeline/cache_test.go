package pipeline

import (
	"errors"
	"sync"
	"testing"
	"time"

	"pathsched/internal/bench"
	"pathsched/internal/ir"
	"pathsched/internal/layout"
	"pathsched/internal/profile"
)

func testKey(b byte) ir.Digest {
	var d ir.Digest
	d[0] = b
	return d
}

func TestCacheHitAfterMiss(t *testing.T) {
	c := NewCache()
	builds := 0
	build := func() (*compiled, error) {
		builds++
		return &compiled{}, nil
	}
	first, err := c.compile(testKey(1), build)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.compile(testKey(1), func() (*compiled, error) {
		t.Error("completed entry re-ran its build")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if builds != 1 {
		t.Fatalf("build ran %d times, want 1", builds)
	}
	if first != second {
		t.Fatal("hit returned a different value than the miss that created the entry")
	}
	s := c.Stats()
	if s.Compile.MemHits != 1 || s.Compile.Builds != 1 || s.Compile.Dedups != 0 {
		t.Fatalf("stats = %+v, want 1 mem hit / 1 build / 0 dedups", s)
	}
}

func TestCacheDistinctKeysDistinctEntries(t *testing.T) {
	c := NewCache()
	a, _ := c.compile(testKey(1), func() (*compiled, error) { return &compiled{}, nil })
	b, _ := c.compile(testKey(2), func() (*compiled, error) { return &compiled{}, nil })
	if a == b {
		t.Fatal("distinct keys shared one entry")
	}
	if s := c.Stats(); s.Compile.Builds != 2 {
		t.Fatalf("stats = %+v, want 2 builds", s)
	}
}

func TestCacheSingleFlight(t *testing.T) {
	c := NewCache()
	gate := make(chan struct{})
	want := &compiled{}
	builds := 0

	// The leader misses and blocks inside its build until the gate
	// opens, holding the entry in the "in flight" state.
	leaderDone := make(chan outcome, 1)
	go func() {
		_, out, _ := c.lookup(testKey(9), func() (*compiled, error) {
			builds++
			<-gate
			return want, nil
		})
		leaderDone <- out
	}()

	// Wait until the leader has registered the entry.
	for {
		c.mu.Lock()
		_, ok := c.compiles[testKey(9)]
		c.mu.Unlock()
		if ok {
			break
		}
		time.Sleep(time.Millisecond)
	}

	const waiters = 8
	outcomes := make(chan outcome, waiters)
	vals := make(chan *compiled, waiters)
	var launched sync.WaitGroup
	for i := 0; i < waiters; i++ {
		launched.Add(1)
		go func() {
			launched.Done()
			v, out, _ := c.lookup(testKey(9), func() (*compiled, error) {
				t.Error("waiter ran the build despite an in-flight leader")
				return nil, nil
			})
			outcomes <- out
			vals <- v
		}()
	}
	// Give every waiter time to find the in-flight entry before the
	// leader finishes; a waiter that classified late would report a
	// (still correct) hit and fail the dedup assertion below.
	launched.Wait()
	time.Sleep(100 * time.Millisecond)
	close(gate)

	if out := <-leaderDone; out != outcomeMiss {
		t.Fatalf("leader outcome = %v, want miss", out)
	}
	for i := 0; i < waiters; i++ {
		if out := <-outcomes; out != outcomeDedup {
			t.Fatalf("waiter outcome = %v, want dedup", out)
		}
		if v := <-vals; v != want {
			t.Fatal("waiter observed a different value than the leader built")
		}
	}
	if builds != 1 {
		t.Fatalf("build ran %d times, want 1", builds)
	}
}

func TestCacheErrorsAreCached(t *testing.T) {
	c := NewCache()
	boom := errors.New("formation failed")
	builds := 0
	for i := 0; i < 3; i++ {
		_, err := c.compile(testKey(3), func() (*compiled, error) {
			builds++
			return nil, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("lookup %d: err = %v, want the original build error", i, err)
		}
	}
	if builds != 1 {
		t.Fatalf("failing build ran %d times, want 1 (errors cache like values)", builds)
	}
}

func TestCacheStatsString(t *testing.T) {
	s := CacheStats{Compile: TierStats{MemHits: 1, DiskHits: 2, Builds: 4, Dedups: 5}}
	want := "compile 1 mem hits / 2 disk hits / 4 builds / 5 dedups"
	if got := s.String(); got != want {
		t.Fatalf("String() = %q, want %q (the compile tier is the only tier)", got, want)
	}
}

// TestCacheHoldsLaidOutBinaries pins what a compile entry is: the
// finished binary its scheme measures. Every entry carries the code
// addresses layout.Assign writes from the replayed training weights
// (not the all-zero addresses of an unplaced compile), its size is the
// one the measurement reports, and measuring it in place leaves it
// unchanged through a second, all-hit run.
func TestCacheHoldsLaidOutBinaries(t *testing.T) {
	names := []string{"alt", "wc"}
	c := NewCache()
	r := NewRunner(Options{Cache: testCache(), Parallelism: 1, ProfileCache: c})
	res, err := r.RunSuite(names, AllSchemes())
	if err != nil {
		t.Fatal(err)
	}
	fps := map[ir.Digest]ir.Digest{}
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
			e := c.compiles[key]
			if e == nil || e.err != nil {
				t.Fatalf("%s/%s: no compile entry under the scheme's key", name, s)
			}
			bin := e.val.bin
			placed := false
			for _, p := range bin.Procs {
				for _, blk := range p.Blocks {
					placed = placed || blk.Addr != 0
				}
			}
			if !placed {
				t.Errorf("%s/%s: cached binary has no code addresses", name, s)
			}
			// Placing an unplaced copy anew must reproduce the
			// cached binary exactly, addresses included.
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
			fp := ir.Fingerprint(bin)
			if ir.Fingerprint(redo) != fp {
				t.Errorf("%s/%s: cached binary's addresses are not the ones layout.Assign writes", name, s)
			}
			if got, want := bin.CodeBytes(), res[i].ByScheme[s].CodeBytes; got != want {
				t.Errorf("%s/%s: cached binary is %d bytes, the measurement reports %d", name, s, got, want)
			}
			fps[key] = fp
		}
	}
	if len(c.compiles) != len(fps) {
		t.Fatalf("cache holds %d entries, the suite's schemes key %d", len(c.compiles), len(fps))
	}

	before := c.Stats()
	if _, err := r.RunSuite(names, AllSchemes()); err != nil {
		t.Fatal(err)
	}
	if after := c.Stats(); after.Compile.Builds != before.Compile.Builds ||
		after.Compile.MemHits-before.Compile.MemHits != int64(len(fps)) {
		t.Fatalf("second run was not all hits: %s -> %s", before, after)
	}
	for key, fp := range fps {
		if ir.Fingerprint(c.compiles[key].val.bin) != fp {
			t.Errorf("entry %x changed while being measured", key[:8])
		}
	}
}
