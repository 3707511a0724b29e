package profile

import (
	"math/rand"
	"strings"
	"testing"

	"pathsched/internal/bench"
	"pathsched/internal/interp"
	"pathsched/internal/ir"
)

func TestEdgeProfileRoundTrip(t *testing.T) {
	prog := chainProg([]bool{true, true, false, true})
	ep := newEdgeCounter(prog)
	rng := rand.New(rand.NewSource(9))
	for a := 0; a < 5; a++ {
		feedWalk(perEvent{ep}, legalWalk(prog, rng, 40))
	}
	orig := ep.Profile()
	text := orig.WriteText()
	back, err := ParseEdgeProfile(prog, text)
	if err != nil {
		t.Fatalf("ParseEdgeProfile: %v\n%s", err, text)
	}
	if back.Entries(0) != orig.Entries(0) {
		t.Fatal("entries diverged")
	}
	for b := ir.BlockID(0); b < 4; b++ {
		if back.BlockFreq(0, b) != orig.BlockFreq(0, b) {
			t.Fatalf("block b%d diverged", b)
		}
		for to := ir.BlockID(0); to < 4; to++ {
			if back.EdgeFreq(0, b, to) != orig.EdgeFreq(0, b, to) {
				t.Fatalf("edge b%d->b%d diverged", b, to)
			}
		}
		s1, f1 := orig.MostLikelySucc(0, b)
		s2, f2 := back.MostLikelySucc(0, b)
		if s1 != s2 || f1 != f2 {
			t.Fatalf("MostLikelySucc(b%d) diverged", b)
		}
		p1, g1 := orig.MostLikelyPred(0, b)
		p2, g2 := back.MostLikelyPred(0, b)
		if p1 != p2 || g1 != g2 {
			t.Fatalf("MostLikelyPred(b%d) diverged", b)
		}
	}
}

func TestPathProfileRoundTrip(t *testing.T) {
	prog := chainProg([]bool{true, false, true, true, false})
	pp := NewPathProfiler(prog, PathConfig{Depth: 4, MaxBlocks: 10})
	rng := rand.New(rand.NewSource(17))
	var walks [][]ir.BlockID
	for a := 0; a < 6; a++ {
		w := legalWalk(prog, rng, 60)
		walks = append(walks, w)
		feedWalk(pp, w)
	}
	orig := pp.Profile()
	text := pp.WriteText()
	back, err := ParsePathProfile(prog, text)
	if err != nil {
		t.Fatalf("ParsePathProfile: %v", err)
	}
	if back.Depth() != 4 {
		t.Fatalf("depth = %d, want 4", back.Depth())
	}
	for _, w := range walks {
		for s := 0; s < len(w); s++ {
			for l := 1; l <= 5 && s+l <= len(w); l++ {
				seq := w[s : s+l]
				if orig.Freq(0, seq) != back.Freq(0, seq) {
					t.Fatalf("Freq(%s) diverged: %d vs %d",
						FmtSeq(seq), orig.Freq(0, seq), back.Freq(0, seq))
				}
			}
		}
	}
}

func TestPathProfileRoundTripOnRealRun(t *testing.T) {
	bd := ir.NewBuilder("loop", 8)
	pb := bd.Proc("main")
	entry, head, body, exit := pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock()
	entry.Add(ir.MovI(1, 0))
	entry.Jmp(head.ID())
	head.Add(ir.CmpLTI(2, 1, 40))
	head.Br(2, body.ID(), exit.ID())
	body.Add(ir.AddI(1, 1, 1))
	body.Jmp(head.ID())
	exit.Ret(1)
	prog := bd.Finish()

	pp := NewPathProfiler(prog, PathConfig{})
	if _, err := interp.Run(prog, interp.Config{Batch: pp}); err != nil {
		t.Fatal(err)
	}
	back, err := ParsePathProfile(prog, pp.WriteText())
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Freq(0, []ir.BlockID{1, 2, 1, 2}); got != 39 {
		t.Fatalf("two-iteration freq after round trip = %d, want 39", got)
	}
}

// The parsed profile must carry the complete configuration the writer
// had — cache keys fingerprint the normalized config, so any field
// that fails to survive the round trip silently conflates
// differently-gathered profiles — and re-serializing must reproduce
// the exact bytes.
func TestPathProfileConfigRoundTrip(t *testing.T) {
	prog := chainProg([]bool{true, false, true})
	configs := []PathConfig{
		{},
		{Depth: 4, MaxBlocks: 10},
		{Depth: 7},
		{MaxBlocks: 9},
	}
	for _, cfg := range configs {
		pp := NewPathProfiler(prog, cfg)
		rng := rand.New(rand.NewSource(23))
		for a := 0; a < 4; a++ {
			feedWalk(pp, legalWalk(prog, rng, 30))
		}
		text := pp.WriteText()
		back, err := parsePathProfiler(prog, text)
		if err != nil {
			t.Fatalf("%+v: parsePathProfiler: %v", cfg, err)
		}
		if got, want := back.Profile().Config(), cfg.Normalized(); got != want {
			t.Errorf("%+v: config after round trip = %+v, want %+v", cfg, got, want)
		}
		if again := back.WriteText(); again != text {
			t.Errorf("%+v: serialize->parse->serialize not byte-identical:\n%s\nvs\n%s", cfg, text, again)
		}
	}
}

func TestProfileParseErrors(t *testing.T) {
	prog := chainProg([]bool{true, true})
	edgeCases := []string{
		"",
		"wrongheader\n",
		"edgeprofile\nblock b0: 5\n", // block before proc
		"edgeprofile\nproc 99 entries=1\n",
		"edgeprofile\nproc 0 entries=x\n",
		"edgeprofile\nproc 0 entries=1\nnonsense\n",
	}
	for _, text := range edgeCases {
		if _, err := ParseEdgeProfile(prog, text); err == nil {
			t.Errorf("edge parse accepted %q", text)
		}
	}
	pathCases := []string{
		"",
		"edgeprofile\n",
		"pathprofile depth=zz\n",
		"pathprofile depth=4 maxblocks=8\npath 5: b0\n", // path before proc
		"pathprofile depth=4 maxblocks=8\nproc 0\npath x: b0\n",
		"pathprofile depth=4 maxblocks=8\nproc 0\npath 5:\n",
		"pathprofile depth=4 maxblocks=8\nproc 7\n",
	}
	for _, text := range pathCases {
		if _, err := ParsePathProfile(prog, text); err == nil {
			t.Errorf("path parse accepted %q", text)
		}
	}

	// Block ids outside the procedure are rejected with the line that
	// names them, before anything is indexed or sized by them (the
	// program has one procedure of two blocks).
	for _, tc := range []struct {
		path bool
		text string
		want string
	}{
		{true, "pathprofile depth=15 maxblocks=64\nproc 0\npath 3: b0 b999\n",
			"line 3: block b999 out of range: proc 0 has 2 blocks"},
		{true, "pathprofile depth=15 maxblocks=64\nproc 0\npath 3: b-1\n",
			"line 3: block b-1 out of range"},
		{false, "edgeprofile\nproc 0 entries=1\nblock b0: 1\nblock b999: 1\n",
			"line 4: block b999 out of range: proc 0 has 2 blocks"},
		{false, "edgeprofile\nproc 0 entries=1\nedge b0->b999: 1\n",
			"line 3: block b999 out of range"},
		{false, "edgeprofile\nproc 0 entries=1\nedge b999->b0: 1\n",
			"line 3: block b999 out of range"},
		{false, "edgeprofile\nproc 0 entries=1\nblock b2000000000: 1\n",
			"line 3: block b2000000000 out of range"},
	} {
		var err error
		if tc.path {
			_, err = ParsePathProfile(prog, tc.text)
		} else {
			_, err = ParseEdgeProfile(prog, tc.text)
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("parse %q: err = %v, want one containing %q", tc.text, err, tc.want)
		}
	}
}

func TestProfileTextIsStable(t *testing.T) {
	// Serialization must be deterministic (sorted) so diffs are usable.
	prog := chainProg([]bool{true, true, true})
	mk := func() (string, string) {
		ep := newEdgeCounter(prog)
		pp := NewPathProfiler(prog, PathConfig{Depth: 3})
		rng := rand.New(rand.NewSource(5))
		for a := 0; a < 4; a++ {
			w := legalWalk(prog, rng, 30)
			feedWalk(fanout{perEvent{ep}, pp}, w)
		}
		return ep.Profile().WriteText(), pp.WriteText()
	}
	e1, p1 := mk()
	e2, p2 := mk()
	if e1 != e2 || p1 != p2 {
		t.Fatal("profile serialization is not deterministic")
	}
	if !strings.Contains(p1, "pathprofile depth=3") {
		t.Fatalf("header malformed:\n%s", p1)
	}
}

// FuzzParseProfiles feeds arbitrary text to both profile parsers over
// the alt and wc programs. Parsing must never panic, and a text either
// parser accepts must reach a fixed point of WriteText∘parse after one
// round. The seeds are the two programs' real edge and path profiles.
func FuzzParseProfiles(f *testing.F) {
	var progs []*ir.Program
	for _, name := range []string{"alt", "wc"} {
		bm := bench.ByName(name)
		prog := bm.Build(bm.Train)
		pp := NewPathProfiler(prog, PathConfig{})
		_, ec, err := interp.EngineFor(prog).RunCounted(interp.Config{Batch: pp})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(EdgeProfileFromCounts(prog, ec).WriteText())
		f.Add(pp.WriteText())
		progs = append(progs, prog)
	}
	f.Fuzz(func(t *testing.T, text string) {
		for _, prog := range progs {
			if ep, err := ParseEdgeProfile(prog, text); err == nil {
				once := ep.WriteText()
				again, err := ParseEdgeProfile(prog, once)
				if err != nil {
					t.Fatalf("%s: edge profile written from an accepted text does not parse: %v\n%s", prog.Name, err, once)
				}
				if twice := again.WriteText(); twice != once {
					t.Fatalf("%s: edge profile text is not a fixed point:\n%s\nvs\n%s", prog.Name, once, twice)
				}
			}
			if _, err := ParsePathProfile(prog, text); err != nil {
				continue
			}
			pp, err := parsePathProfiler(prog, text)
			if err != nil {
				t.Fatalf("%s: ParsePathProfile accepted a text parsePathProfiler rejects: %v", prog.Name, err)
			}
			once := pp.WriteText()
			again, err := parsePathProfiler(prog, once)
			if err != nil {
				t.Fatalf("%s: path profile written from an accepted text does not parse: %v\n%s", prog.Name, err, once)
			}
			if twice := again.WriteText(); twice != once {
				t.Fatalf("%s: path profile text is not a fixed point:\n%s\nvs\n%s", prog.Name, once, twice)
			}
		}
	})
}
