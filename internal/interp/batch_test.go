package interp

import (
	"errors"
	"reflect"
	"testing"

	"pathsched/internal/ir"
)

// This file gates the batched-observer seam (Config.Batch) and the
// counted-run fast path (RunCounted) against the per-event baseline:
// the engine and the oracle must deliver byte-identical batch streams —
// including flush boundaries — and a batch stream flattened back to
// per-event form must equal the oracle's per-event stream of the same
// run.

// batchLog records BatchObserver callbacks. EdgeBatch copies the
// delivered records: the engine reuses its ring buffer across flushes,
// so retaining the slice would alias later batches.
type batchLog struct {
	events []batchEvent
}

type batchEvent struct {
	kind  byte // 'B' BeginProc, 'E' EndProc, 'F' EdgeBatch
	proc  ir.ProcID
	entry ir.BlockID
	recs  []EdgeRec
}

func (l *batchLog) BeginProc(p ir.ProcID, entry ir.BlockID) {
	l.events = append(l.events, batchEvent{kind: 'B', proc: p, entry: entry})
}

func (l *batchLog) EndProc(p ir.ProcID) {
	l.events = append(l.events, batchEvent{kind: 'E', proc: p})
}

func (l *batchLog) EdgeBatch(p ir.ProcID, recs []EdgeRec) {
	l.events = append(l.events, batchEvent{
		kind: 'F', proc: p, recs: append([]EdgeRec(nil), recs...)})
}

// flatten expands the batch stream into the per-event stream it stands
// for: BeginProc ≡ EnterProc + Block(entry), each record ≡ Edge +
// Block(To), EndProc ≡ ExitProc.
func (l *batchLog) flatten() eventLog {
	var out eventLog
	for _, ev := range l.events {
		switch ev.kind {
		case 'B':
			out.enters = append(out.enters, ev.entry)
			out.blocks = append(out.blocks, ev.entry)
		case 'E':
			out.exits = append(out.exits, ev.proc)
		case 'F':
			for _, r := range ev.recs {
				out.edges = append(out.edges, [2]ir.BlockID{r.From, r.To})
				out.blocks = append(out.blocks, r.To)
			}
		}
	}
	return out
}

// diffBatch runs prog on the engine and the oracle with a batch
// observer and fails on any divergence: error outcome, Result, the
// batch streams themselves (flush boundaries included), and the
// flattened stream against the oracle's per-event stream.
func diffBatch(t *testing.T, name string, prog *ir.Program) {
	t.Helper()
	var refB, decB batchLog
	refRes, refErr := referenceRun(prog, Config{Batch: &refB})
	decRes, decErr := Run(prog, Config{Batch: &decB})
	if (refErr == nil) != (decErr == nil) {
		t.Fatalf("%s: reference err = %v, decoded err = %v", name, refErr, decErr)
	}
	if refErr != nil && refErr.Error() != decErr.Error() {
		t.Fatalf("%s: reference err %q, decoded err %q", name, refErr, decErr)
	}
	if !reflect.DeepEqual(refB.events, decB.events) {
		t.Fatalf("%s: batch streams diverge\nreference: %+v\ndecoded:   %+v",
			name, refB.events, decB.events)
	}
	if refErr == nil && !reflect.DeepEqual(refRes, decRes) {
		t.Fatalf("%s: results diverge\nreference: %+v\ndecoded:   %+v", name, refRes, decRes)
	}

	var events eventLog
	if _, err := referenceRunEvents(prog, Config{}, &events); (err == nil) != (decErr == nil) {
		t.Fatalf("%s: per-event oracle run err = %v, batch run err = %v", name, err, decErr)
	}
	if got := decB.flatten(); !reflect.DeepEqual(got, events) {
		t.Fatalf("%s: flattened batch stream != per-event stream\nbatch:     %+v\nper-event: %+v",
			name, got, events)
	}
}

func TestBatchMatchesReferenceHandCases(t *testing.T) {
	cases := []struct {
		name string
		prog *ir.Program
	}{
		{"sumLoop", sumLoop(500)},
		{"sumLoopLong", sumLoop(3000)}, // > batchCap edges: mid-run flushes
		{"mergedEarlyExit", mergedProg(1)},
		{"mergedCompletion", mergedProg(0)},
		{"specLoad", specLoadProg()},
		{"switchFallthroughTaken", switchFallthroughProg(0)},
		{"switchFallthroughFT", switchFallthroughProg(1)},
		{"switchFallthroughDefault", switchFallthroughProg(9)},
		{"callFallthrough", callFallthroughProg()},
		{"narrowTwin", wideTwin(1)},
		{"wideTwin", wideTwin(297)}, // register numbers past 255
	}
	for _, tc := range cases {
		diffBatch(t, tc.name, tc.prog)
	}
}

func TestBatchMatchesReferenceErrors(t *testing.T) {
	// Batches must agree (and be fully flushed up to the fault) even on
	// runs that error.
	bd := ir.NewBuilder("badload", 8)
	pb := bd.Proc("main")
	b := pb.NewBlock()
	b.Add(ir.Load(2, 1, -5))
	b.Ret(2)
	diffBatch(t, "unmappedLoad", bd.Finish())
}

func TestBatchRandomPrograms(t *testing.T) {
	n := uint64(150)
	if testing.Short() {
		n = 40
	}
	for seed := uint64(1); seed <= n; seed++ {
		prog := randomProgram(seed)
		if err := ir.Verify(prog); err != nil {
			t.Fatalf("seed %d: generated program fails verify: %v", seed, err)
		}
		diffBatch(t, prog.Name, prog)
	}
}

// TestObserverKeepsDecodedEngine pins that hooks never change how a
// program executes: with a batch observer or a counted batch run
// attached, every program — register numbers past 255 included — runs
// on its one memoized decode and returns the bare run's Result.
func TestObserverKeepsDecodedEngine(t *testing.T) {
	for _, tc := range []struct {
		name string
		prog *ir.Program
	}{
		{"sumLoop", sumLoop(100)},
		{"callFallthrough", callFallthroughProg()},
		{"narrowTwin", wideTwin(1)},
		{"wideTwin", wideTwin(297)},
	} {
		e := EngineFor(tc.prog)
		want, err := e.Run(Config{})
		if err != nil {
			t.Fatalf("%s: bare run: %v", tc.name, err)
		}
		batched, err := Run(tc.prog, Config{Batch: &batchLog{}})
		if err != nil {
			t.Fatalf("%s: batched run: %v", tc.name, err)
		}
		counted, _, err := e.RunCounted(Config{Batch: &batchLog{}})
		if err != nil {
			t.Fatalf("%s: counted run with batch observer: %v", tc.name, err)
		}
		for _, got := range []*Result{batched, counted} {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: hooked run %+v differs from bare run %+v", tc.name, got, want)
			}
		}
		if EngineFor(tc.prog) != e {
			t.Fatalf("%s: hooked runs must share the memoized decode", tc.name)
		}
	}
}

func TestRunCountedMatchesRun(t *testing.T) {
	progs := []struct {
		name string
		prog *ir.Program
	}{
		{"sumLoop", sumLoop(500)},
		{"mergedEarlyExit", mergedProg(1)},
		{"switchFallthroughDefault", switchFallthroughProg(9)},
		{"callFallthrough", callFallthroughProg()},
	}
	for seed := uint64(1); seed <= 25; seed++ {
		progs = append(progs, struct {
			name string
			prog *ir.Program
		}{randomProgram(seed).Name, randomProgram(seed)})
	}
	for _, tc := range progs {
		want, wantErr := Run(tc.prog, Config{})
		got, ec, gotErr := EngineFor(tc.prog).RunCounted(Config{})
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: Run err = %v, RunCounted err = %v", tc.name, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: results diverge\nplain:   %+v\ncounted: %+v", tc.name, want, got)
		}
		if ec == nil {
			t.Fatalf("%s: completed counted run returned nil EdgeCounts", tc.name)
		}
	}
}

func TestRunCountedRejections(t *testing.T) {
	if _, _, err := EngineFor(manyRegs(300)).RunCounted(Config{Batch: &batchLog{}}); !errors.Is(err, ErrTooManyRegisters) {
		t.Fatalf("counted run on an undecodable program: err = %v, want %v", err, ErrTooManyRegisters)
	}
}
