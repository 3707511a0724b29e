package pipeline

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"pathsched/internal/bench"
	"pathsched/internal/core"
	"pathsched/internal/ir"
	"pathsched/internal/machine"
)

func TestForEachLimitedRunsEveryItem(t *testing.T) {
	for _, par := range []int{1, 2, 7, 100} {
		var ran [17]int32
		err := forEachLimited(len(ran), par, func(i int) error {
			atomic.AddInt32(&ran[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		for i, n := range ran {
			if n != 1 {
				t.Fatalf("par=%d: item %d ran %d times", par, i, n)
			}
		}
	}
}

func TestForEachLimitedBoundsConcurrency(t *testing.T) {
	const par = 3
	var cur, peak int32
	err := forEachLimited(20, par, func(i int) error {
		n := atomic.AddInt32(&cur, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if n <= p || atomic.CompareAndSwapInt32(&peak, p, n) {
				break
			}
		}
		atomic.AddInt32(&cur, -1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt32(&peak); got > par {
		t.Fatalf("observed %d concurrent items, bound is %d", got, par)
	}
}

// After a failure, workers stop claiming items: a pool that ignored it
// would start all 44 items above item 5, the first to fail, while item
// 3 is still sleeping. Every item below a failed one still runs, and
// item 3's later failure wins because its index is lower.
func TestForEachLimitedReturnsLowestErrorAndCancels(t *testing.T) {
	for _, par := range []int{1, 4} {
		var ran [50]atomic.Bool
		var failed atomic.Bool
		var late atomic.Int32
		err := forEachLimited(len(ran), par, func(i int) error {
			if failed.Load() {
				late.Add(1)
			}
			ran[i].Store(true)
			switch i {
			case 3:
				time.Sleep(5 * time.Millisecond)
				return errors.New("item 3")
			case 5:
				failed.Store(true)
				return errors.New("item 5")
			}
			time.Sleep(time.Millisecond)
			return nil
		})
		if err == nil || err.Error() != "item 3" {
			t.Fatalf("par=%d: err = %v, want item 3's", par, err)
		}
		for i := 0; i < 3; i++ {
			if !ran[i].Load() {
				t.Fatalf("par=%d: item %d below the failures never ran", par, i)
			}
		}
		if n := late.Load(); n > int32(2*par) {
			t.Fatalf("par=%d: %d items started after the failure", par, n)
		}
	}
}

// A failing benchmark's own error reaches the caller, whatever is still
// running beside it. Here alt (one procedure) fails every compile while
// gcc, earlier in suite order and much slower, is still compiling; the
// error must name alt's first scheme, not a cancellation of gcc's.
func TestRunSuiteReportsFailureNotCancellation(t *testing.T) {
	failAlt := func(c *core.Config) {
		if c.Path.NumProcs() == 1 {
			c.Method = 99
		}
	}
	const want = "pipeline: alt/P4: compile: core: unknown method 99"
	for _, par := range []int{1, 2} {
		r := NewRunner(Options{Parallelism: par, Form: failAlt})
		_, err := r.RunSuite([]string{"gcc", "alt"}, []Scheme{SchemeP4, SchemeM4})
		if err == nil || err.Error() != want {
			t.Fatalf("par=%d: err = %v, want %q", par, err, want)
		}
	}
}

// TestParallelMatchesSerial is the tentpole's determinism guarantee at
// the Result level: a Parallelism>1 run must produce measurements
// deeply equal to the historical serial order, benchmark by benchmark
// and scheme by scheme.
func TestParallelMatchesSerial(t *testing.T) {
	names := []string{"alt", "ph", "corr"}
	run := func(par int) []*Result {
		c := machine.DefaultICache()
		r := NewRunner(Options{Cache: &c, Parallelism: par})
		res, err := r.RunSuite(names, AllSchemes())
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		return res
	}
	serial, parallel := run(1), run(4)
	if len(serial) != len(parallel) {
		t.Fatalf("result counts diverge: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].Name != parallel[i].Name {
			t.Fatalf("suite order diverges at %d: %s vs %s", i, serial[i].Name, parallel[i].Name)
		}
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("%s: parallel result differs from serial:\nserial:   %+v\nparallel: %+v",
				serial[i].Name, serial[i], parallel[i])
		}
	}
}

// countingBenchmark wraps b so every Build invocation is counted by
// input label. The counters are atomic because parallel scheme runs may
// build concurrently.
func countingBenchmark(b *bench.Benchmark, trainN, testN *int64) *bench.Benchmark {
	wrapped := *b
	wrapped.Build = func(in bench.Input) *ir.Program {
		switch in.Label {
		case b.Train.Label:
			atomic.AddInt64(trainN, 1)
		case b.Test.Label:
			atomic.AddInt64(testN, 1)
		}
		return b.Build(in)
	}
	return &wrapped
}

// TestBuildCountPerBenchmark locks in the redundant-build fix: one
// pristine train and one pristine test build serve profiling, the
// reference run, and every scheme compile (which clone rather than
// mutate). The acceptance bound is len(schemes)+1 test builds; the
// implementation achieves exactly one of each.
func TestBuildCountPerBenchmark(t *testing.T) {
	for _, par := range []int{1, 4} {
		var trainN, testN int64
		// wc has distinct train/test labels, so the counter can tell
		// the two build kinds apart (microbenchmarks share one label).
		b := countingBenchmark(bench.ByName("wc"), &trainN, &testN)
		r := NewRunner(Options{Parallelism: par})
		if _, err := r.RunBenchmark(b, AllSchemes()); err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		if max := int64(len(AllSchemes()) + 1); testN > max {
			t.Fatalf("par=%d: %d test builds, acceptance bound is %d", par, testN, max)
		}
		if trainN != 1 || testN != 1 {
			t.Fatalf("par=%d: train/test builds = %d/%d, want 1/1", par, trainN, testN)
		}
	}
}

// TestRunBenchmarkSchemeErrorPropagates drives the error path through
// an unknown scheme between two valid ones: the run must fail.
func TestRunBenchmarkSchemeErrorPropagates(t *testing.T) {
	r := NewRunner(Options{Parallelism: 4})
	_, err := r.RunBenchmark(bench.ByName("alt"), []Scheme{SchemeBB, "bogus", SchemeP4})
	if err == nil {
		t.Fatal("unknown scheme must error")
	}
}
