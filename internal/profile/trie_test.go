package profile

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"pathsched/internal/ir"
)

// trieProfile freezes the given windows into a one-procedure profile
// over nblocks blocks.
func trieProfile(nblocks int, wins []trieWindow) *PathProfile {
	tb := &trieBuilder{condBr: make([]bool, nblocks)}
	for _, w := range wins {
		tb.add(w.seq, w.n)
	}
	return &PathProfile{cfg: PathConfig{}.Normalized(), procs: []*procPathIndex{tb.freeze()}}
}

// suffixOracle is the frozen index's definition spelled out with
// maps: every window adds its count to each of its suffixes, and a
// sequence's successors are the indexed sequences one block longer.
type suffixOracle struct {
	freq  map[string]int64
	succ  map[string]map[ir.BlockID]int64
	wins  int64
	dist  map[string]bool
	block map[ir.BlockID]int64
}

func newSuffixOracle(wins []trieWindow) *suffixOracle {
	o := &suffixOracle{freq: map[string]int64{}, succ: map[string]map[ir.BlockID]int64{},
		dist: map[string]bool{}, block: map[ir.BlockID]int64{}}
	for _, w := range wins {
		if w.n == 0 {
			continue
		}
		o.wins += w.n
		o.dist[seqKey(w.seq)] = true
		for s := range w.seq {
			o.freq[seqKey(w.seq[s:])] += w.n
		}
		o.block[w.seq[len(w.seq)-1]] += w.n
	}
	for k, n := range o.freq {
		if len(k) < 8 {
			continue
		}
		seq := keySeq(k)
		hk := seqKey(seq[:len(seq)-1])
		if o.succ[hk] == nil {
			o.succ[hk] = map[ir.BlockID]int64{}
		}
		o.succ[hk][seq[len(seq)-1]] = n
	}
	return o
}

func keySeq(k string) []ir.BlockID {
	seq := make([]ir.BlockID, len(k)/4)
	for i := range seq {
		seq[i] = ir.BlockID(uint32(k[4*i]) | uint32(k[4*i+1])<<8 | uint32(k[4*i+2])<<16 | uint32(k[4*i+3])<<24)
	}
	return seq
}

// requireMatchesOracle checks every query of pf against the oracle.
func requireMatchesOracle(t *testing.T, pf *PathProfile, o *suffixOracle, nblocks int, rng *rand.Rand) {
	t.Helper()
	if got := pf.NumSeqs(0); got != len(o.freq) {
		t.Fatalf("NumSeqs = %d, want %d", got, len(o.freq))
	}
	if w, d := pf.Windows(0); w != o.wins || d != len(o.dist) {
		t.Fatalf("Windows = (%d, %d), want (%d, %d)", w, d, o.wins, len(o.dist))
	}
	seen := 0
	pf.ForEachSeq(0, func(seq []ir.BlockID, n, ext int64) {
		seen++
		k := seqKey(seq)
		var want int64
		for _, m := range o.succ[k] {
			want += m
		}
		if o.freq[k] != n || ext != want {
			t.Fatalf("ForEachSeq(%s) = (%d, ext %d), want (%d, ext %d)", FmtSeq(seq), n, ext, o.freq[k], want)
		}
	})
	if seen != len(o.freq) {
		t.Fatalf("ForEachSeq visited %d sequences, want %d", seen, len(o.freq))
	}
	for k, n := range o.freq {
		if got := pf.Freq(0, keySeq(k)); got != n {
			t.Fatalf("Freq(%s) = %d, want %d", FmtSeq(keySeq(k)), got, n)
		}
	}
	// Heads include sequences no window ends with.
	for k, want := range o.succ {
		seq := keySeq(k)
		if got := pf.SuccFreqs(0, seq); !reflect.DeepEqual(got, want) {
			t.Fatalf("SuccFreqs(%s) = %v, want %v", FmtSeq(seq), got, want)
		}
		best, bestN := ir.NoBlock, int64(0)
		for b, n := range want {
			if n > bestN || (n == bestN && b < best) {
				best, bestN = b, n
			}
		}
		if s, n := pf.MostLikelyPathSuccessor(0, seq); s != best || n != bestN {
			t.Fatalf("MostLikelyPathSuccessor(%s) = (b%d, %d), want (b%d, %d)", FmtSeq(seq), s, n, best, bestN)
		}
	}
	for q := 0; q < 200; q++ {
		seq := make([]ir.BlockID, 1+rng.Intn(6))
		for i := range seq {
			seq[i] = ir.BlockID(rng.Intn(nblocks + 1))
		}
		k := seqKey(seq)
		if got := pf.Freq(0, seq); got != o.freq[k] {
			t.Fatalf("random Freq(%s) = %d, want %d", FmtSeq(seq), got, o.freq[k])
		}
		if got, want := pf.SuccFreqs(0, seq), o.succ[k]; len(got) != len(want) {
			t.Fatalf("random SuccFreqs(%s) = %v, want %v", FmtSeq(seq), got, want)
		}
	}
	var blocks []ir.BlockID
	for b := range o.block {
		blocks = append(blocks, b)
	}
	sort.Slice(blocks, func(i, j int) bool {
		if o.block[blocks[i]] != o.block[blocks[j]] {
			return o.block[blocks[i]] > o.block[blocks[j]]
		}
		return blocks[i] < blocks[j]
	})
	if got := pf.BlocksByFreq(0); len(got) != len(blocks) || (len(blocks) > 0 && !reflect.DeepEqual(got, blocks)) {
		t.Fatalf("BlocksByFreq = %v, want %v", got, blocks)
	}
}

// TestTrieMatchesSuffixOracle freezes random window sets — arbitrary
// sequences, so heads need not be indexed, with repeats and zero
// counts — and checks every query against the map definition. A
// shuffled insertion order must freeze to the identical value.
func TestTrieMatchesSuffixOracle(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nblocks := 1 + rng.Intn(8)
		var wins []trieWindow
		for i := 0; i < rng.Intn(40); i++ {
			seq := make([]ir.BlockID, 1+rng.Intn(9))
			for j := range seq {
				seq[j] = ir.BlockID(rng.Intn(nblocks))
			}
			wins = append(wins, trieWindow{seq, int64(rng.Intn(5))})
			if rng.Intn(4) == 0 {
				wins = append(wins, trieWindow{seq, 1})
			}
		}
		pf := trieProfile(nblocks, wins)
		requireMatchesOracle(t, pf, newSuffixOracle(wins), nblocks, rng)

		shuffled := append([]trieWindow(nil), wins...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if again := trieProfile(nblocks, shuffled); !reflect.DeepEqual(again, pf) {
			t.Fatalf("seed %d: insertion order changed the frozen trie", seed)
		}
	}
}

// A head that no window ends with is still a query key for its
// extensions, but not an indexed sequence: it has no frequency and
// sweeps skip it.
func TestTrieUnindexedHead(t *testing.T) {
	pf := trieProfile(3, []trieWindow{{[]ir.BlockID{0, 1}, 3}})
	if n := pf.Freq(0, []ir.BlockID{0}); n != 0 {
		t.Fatalf("Freq(b0) = %d, want 0", n)
	}
	if got := pf.SuccFreqs(0, []ir.BlockID{0}); !reflect.DeepEqual(got, map[ir.BlockID]int64{1: 3}) {
		t.Fatalf("SuccFreqs(b0) = %v, want map[1:3]", got)
	}
	if s, n := pf.MostLikelyPathSuccessor(0, []ir.BlockID{0}); s != 1 || n != 3 {
		t.Fatalf("MostLikelyPathSuccessor(b0) = (b%d, %d), want (b1, 3)", s, n)
	}
	var got []string
	pf.ForEachSeq(0, func(seq []ir.BlockID, n, _ int64) { got = append(got, FmtSeq(seq)) })
	if want := []string{"b1", "b0→b1"}; !reflect.DeepEqual(got, want) || pf.NumSeqs(0) != 2 {
		t.Fatalf("ForEachSeq visited %v (NumSeqs %d), want %v", got, pf.NumSeqs(0), want)
	}
	if got := pf.BlocksByFreq(0); !reflect.DeepEqual(got, []ir.BlockID{1}) {
		t.Fatalf("BlocksByFreq = %v, want [1]", got)
	}
}

// The empty profile answers every query with nothing.
func TestTrieEmpty(t *testing.T) {
	pf := trieProfile(2, nil)
	if pf.Freq(0, []ir.BlockID{0}) != 0 || pf.SuccFreqs(0, []ir.BlockID{0}) != nil || pf.NumSeqs(0) != 0 ||
		len(pf.BlocksByFreq(0)) != 0 {
		t.Fatal("empty profile answered a query")
	}
	if s, n := pf.MostLikelyPathSuccessor(0, nil); s != ir.NoBlock || n != 0 {
		t.Fatalf("MostLikelyPathSuccessor(empty) = (b%d, %d)", s, n)
	}
	pf.ForEachSeq(0, func([]ir.BlockID, int64, int64) { t.Fatal("empty profile swept a sequence") })
}
