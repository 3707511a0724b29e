package ir_test

import (
	"bytes"
	"testing"

	root "pathsched"
	"pathsched/internal/bench"
	"pathsched/internal/ir"
	"pathsched/internal/ir/irtest"
)

// codecPrograms returns a mix of pristine and fully compiled programs:
// the compiled ones carry every annotation the disk store must
// preserve (Cycles, Units, UnitOrigins, ExitUnits, superblock ids,
// layout addresses), which the textual format deliberately drops.
func codecPrograms(t *testing.T) map[string]*ir.Program {
	t.Helper()
	out := map[string]*ir.Program{}
	for _, name := range []string{"wc", "alt"} {
		b := bench.ByName(name)
		if b == nil {
			t.Fatalf("unknown benchmark %q", name)
		}
		pristine := b.Build(b.Test)
		out[name+"/pristine"] = pristine
		profs, err := root.ProfileProgram(b.Build(b.Train))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []root.Scheme{"BB", "P4"} {
			bin, err := root.Compile(pristine, profs, s)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, s, err)
			}
			out[name+"/"+string(s)] = bin
		}
	}
	for seed := int64(0); seed < 20; seed++ {
		out[fmtSeed(seed)] = irtest.RandExecProg(seed, 8+int(seed))
	}
	return out
}

func fmtSeed(s int64) string { return string(rune('a'+s)) + "/rand" }

func TestCodecRoundTripPreservesFingerprint(t *testing.T) {
	for name, prog := range codecPrograms(t) {
		want := ir.Fingerprint(prog)
		data := ir.EncodeProgram(prog)
		got, err := ir.DecodeProgram(data)
		if err != nil {
			t.Errorf("%s: decode: %v", name, err)
			continue
		}
		if ir.Fingerprint(got) != want {
			t.Errorf("%s: fingerprint changed across encode/decode round trip", name)
		}
		// Re-encoding the decoded program must reproduce the bytes:
		// the codec has one canonical encoding per program, so disk
		// entries stay stable across rewrite cycles.
		if !bytes.Equal(ir.EncodeProgram(got), data) {
			t.Errorf("%s: re-encode is not byte-identical", name)
		}
	}
}

// TestCodecPreservesAnnotationPresence pins the nil-vs-empty seam the
// fingerprint treats as semantic: nil Cycles means unscheduled.
func TestCodecPreservesAnnotationPresence(t *testing.T) {
	b := bench.ByName("wc")
	profs, err := root.ProfileProgram(b.Build(b.Train))
	if err != nil {
		t.Fatal(err)
	}
	bin, err := root.Compile(b.Build(b.Test), profs, "P4")
	if err != nil {
		t.Fatal(err)
	}
	got, err := ir.DecodeProgram(ir.EncodeProgram(bin))
	if err != nil {
		t.Fatal(err)
	}
	sawScheduled := false
	for pi, p := range bin.Procs {
		for bi, blk := range p.Blocks {
			g := got.Procs[pi].Blocks[bi]
			if (blk.Cycles == nil) != (g.Cycles == nil) {
				t.Fatalf("proc %s block b%d: Cycles nil-ness not preserved", p.Name, blk.ID)
			}
			if (blk.UnitOrigins == nil) != (g.UnitOrigins == nil) {
				t.Fatalf("proc %s block b%d: UnitOrigins nil-ness not preserved", p.Name, blk.ID)
			}
			if blk.Cycles != nil {
				sawScheduled = true
			}
		}
	}
	if !sawScheduled {
		t.Fatal("compiled program has no scheduled blocks; test proves nothing")
	}
}

func TestCodecRejectsTruncation(t *testing.T) {
	prog := irtest.RandExecProg(7, 12)
	data := ir.EncodeProgram(prog)
	for n := 0; n < len(data); n++ {
		if _, err := ir.DecodeProgram(data[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded without error", n, len(data))
		}
	}
}

func TestCodecRejectsTrailingBytes(t *testing.T) {
	data := append(ir.EncodeProgram(irtest.RandExecProg(3, 8)), 0x00)
	if _, err := ir.DecodeProgram(data); err == nil {
		t.Fatal("trailing byte decoded without error")
	}
}

// TestCodecBitFlipNeverForgesFingerprint flips every bit of a small
// encoding: each flip must fail to decode, decode to a program with a
// different fingerprint, or decode to the *genuinely identical*
// program (some flips only denormalize a varint or presence flag —
// e.g. a nonzero flag stays "present" — which is harmless redundancy,
// proven by the canonical re-encode matching the original bytes). What
// must never happen is a flip decoding to a different program that
// still re-fingerprints clean — that would defeat the store's
// integrity check.
func TestCodecBitFlipNeverForgesFingerprint(t *testing.T) {
	prog := irtest.RandExecProg(11, 8)
	orig := ir.EncodeProgram(prog)
	want := ir.Fingerprint(prog)
	for pos := 0; pos < len(orig); pos++ {
		for bit := 0; bit < 8; bit++ {
			data := append([]byte(nil), orig...)
			data[pos] ^= 1 << bit
			got, err := ir.DecodeProgram(data)
			if err != nil || ir.Fingerprint(got) != want {
				continue
			}
			if !bytes.Equal(ir.EncodeProgram(got), orig) {
				t.Fatalf("flip at byte %d bit %d forged a fingerprint-identical but different program", pos, bit)
			}
		}
	}
}

// BenchmarkFingerprint fingerprints the suite's 28 pristine builds,
// every benchmark's training and testing input: the set-up work each
// cmd/bench child does before its timed run, besides building and
// verifying them.
func BenchmarkFingerprint(b *testing.B) {
	var progs []*ir.Program
	for _, bm := range bench.All() {
		progs = append(progs, bm.Build(bm.Train), bm.Build(bm.Test))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			fingerprintSink = ir.Fingerprint(p)
		}
	}
}

// fingerprintSink keeps BenchmarkFingerprint's calls from being
// optimized away.
var fingerprintSink ir.Digest
