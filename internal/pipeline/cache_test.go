package pipeline

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"pathsched/internal/ir"
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
	want := &layoutProfile{}
	builds := 0

	// The leader misses and blocks inside its build until the gate
	// opens, holding the entry in the "in flight" state.
	leaderDone := make(chan outcome, 1)
	go func() {
		_, out, _ := lookup(c, c.layouts, testKey(9), func() (*layoutProfile, error) {
			builds++
			<-gate
			return want, nil
		})
		leaderDone <- out
	}()

	// Wait until the leader has registered the entry.
	for {
		c.mu.Lock()
		_, ok := c.layouts[testKey(9)]
		c.mu.Unlock()
		if ok {
			break
		}
		time.Sleep(time.Millisecond)
	}

	const waiters = 8
	outcomes := make(chan outcome, waiters)
	vals := make(chan *layoutProfile, waiters)
	var launched sync.WaitGroup
	for i := 0; i < waiters; i++ {
		launched.Add(1)
		go func() {
			launched.Done()
			v, out, _ := lookup(c, c.layouts, testKey(9), func() (*layoutProfile, error) {
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
	s := CacheStats{
		Compile: TierStats{MemHits: 1, DiskHits: 2, ClaimWaits: 3, Builds: 4, Dedups: 5},
		Layout:  TierStats{MemHits: 6, DiskHits: 7, ClaimWaits: 8, Builds: 9, Dedups: 10},
	}
	got := s.String()
	for _, want := range []string{
		"compile 1 mem hits / 2 disk hits / 3 claim-waits / 4 builds / 5 dedups",
		"layout-profile 6 mem hits / 7 disk hits / 8 claim-waits / 9 builds / 10 dedups",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("String() = %q, missing %q", got, want)
		}
	}
}
