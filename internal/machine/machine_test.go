package machine

import (
	"testing"
	"testing/quick"

	"pathsched/internal/ir"
)

func TestDefaultConfig(t *testing.T) {
	c := Default()
	if c.FuncUnits != 8 || c.BranchPerCycle != 1 {
		t.Fatalf("default machine = %+v, want 8 FUs and 1 branch/cycle", c)
	}
	if c.Latency(ir.OpAdd) != 1 || c.Latency(ir.OpLoad) != 1 {
		t.Fatal("baseline latencies must be single-cycle")
	}
	c.Realistic = true
	if c.Latency(ir.OpLoad) <= 1 || c.Latency(ir.OpMul) <= 1 {
		t.Fatal("realistic latencies must exceed one cycle for loads and multiplies")
	}
	if c.Latency(ir.OpAdd) != 1 {
		t.Fatal("ALU latency stays 1 even under realistic model")
	}
}

func TestICacheColdMissesThenHits(t *testing.T) {
	c := NewICache(DefaultICache())
	stall := c.FetchRange(0, 64) // two lines, both cold
	if stall != 12 {
		t.Fatalf("cold stall = %d, want 12", stall)
	}
	if c.Misses() != 2 || c.Accesses() != 2 {
		t.Fatalf("misses=%d accesses=%d", c.Misses(), c.Accesses())
	}
	if s := c.FetchRange(0, 64); s != 0 {
		t.Fatalf("warm stall = %d, want 0", s)
	}
	if c.MissRate() != 0.5 {
		t.Fatalf("miss rate = %v, want 0.5", c.MissRate())
	}
}

func TestICacheConflictMapping(t *testing.T) {
	cfg := DefaultICache()
	c := NewICache(cfg)
	// Two addresses exactly one cache size apart map to the same set.
	if s := c.FetchRange(0, 1); s != cfg.Penalty {
		t.Fatalf("first access stall = %d", s)
	}
	if s := c.FetchRange(cfg.SizeBytes, cfg.SizeBytes+1); s != cfg.Penalty {
		t.Fatal("conflicting line must miss")
	}
	if s := c.FetchRange(0, 1); s != cfg.Penalty {
		t.Fatal("original line must have been evicted")
	}
}

func TestICacheLineGranularity(t *testing.T) {
	c := NewICache(DefaultICache())
	c.FetchRange(0, 4) // touches line 0 only
	if c.Accesses() != 1 {
		t.Fatalf("accesses = %d, want 1", c.Accesses())
	}
	c.FetchRange(28, 36) // spans lines 0 and 1
	if c.Accesses() != 3 {
		t.Fatalf("accesses = %d, want 3", c.Accesses())
	}
	if c.Misses() != 2 { // line 0 warm, line 1 cold
		t.Fatalf("misses = %d, want 2", c.Misses())
	}
}

func TestICacheEmptyAndReset(t *testing.T) {
	c := NewICache(DefaultICache())
	if s := c.FetchRange(100, 100); s != 0 {
		t.Fatal("empty range must not stall")
	}
	if c.MissRate() != 0 {
		t.Fatal("miss rate before any access must be 0")
	}
	c.FetchRange(0, 32)
	c.Reset()
	if c.Accesses() != 0 || c.Misses() != 0 {
		t.Fatal("reset must clear counters")
	}
	if s := c.FetchRange(0, 32); s == 0 {
		t.Fatal("reset must clear contents")
	}
}

// Property: fetching the same range twice in a row never misses the
// second time, for arbitrary ranges.
func TestICacheIdempotentRefetch(t *testing.T) {
	c := NewICache(DefaultICache())
	check := func(start uint16, length uint8) bool {
		s, e := int64(start), int64(start)+int64(length)
		c.FetchRange(s, e)
		return c.FetchRange(s, e) == 0
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: total misses never exceed total accesses, and stall is
// always penalty * misses.
func TestICacheAccounting(t *testing.T) {
	cfg := DefaultICache()
	c := NewICache(cfg)
	var stall int64
	for i := int64(0); i < 500; i++ {
		start := (i * 7919) % (1 << 20)
		stall += c.FetchRange(start, start+((i*13)%96))
	}
	if c.Misses() > c.Accesses() {
		t.Fatal("misses exceed accesses")
	}
	if stall != c.Misses()*cfg.Penalty {
		t.Fatalf("stall %d != misses %d * penalty %d", stall, c.Misses(), cfg.Penalty)
	}
}

func TestSetAssociativeCacheAvoidsConflictMisses(t *testing.T) {
	cfg := DefaultICache()
	cfg.Ways = 2
	c := NewICache(cfg)
	// Two lines one cache-size apart now share a 2-way set: both fit.
	c.FetchRange(0, 1)
	c.FetchRange(cfg.SizeBytes, cfg.SizeBytes+1)
	if s := c.FetchRange(0, 1); s != 0 {
		t.Fatal("2-way cache must retain both conflicting lines")
	}
	if s := c.FetchRange(cfg.SizeBytes, cfg.SizeBytes+1); s != 0 {
		t.Fatal("second conflicting line must also be retained")
	}
	// Re-touch line 0 so line S becomes LRU, then insert a third
	// conflicting line: S must be the victim.
	c.FetchRange(0, 1)
	c.FetchRange(2*cfg.SizeBytes, 2*cfg.SizeBytes+1) // evicts LRU = S
	if s := c.FetchRange(0, 1); s != 0 {
		t.Fatal("MRU line must survive")
	}
	if s := c.FetchRange(cfg.SizeBytes, cfg.SizeBytes+1); s == 0 {
		t.Fatal("LRU line must have been evicted")
	}
}

func TestFullyAssociativeSmallCache(t *testing.T) {
	c := NewICache(ICacheConfig{SizeBytes: 128, LineBytes: 32, Penalty: 6, Ways: 4})
	// 4 lines total, one set. Touch 4 distinct lines: all resident.
	for i := int64(0); i < 4; i++ {
		c.FetchRange(i*1000, i*1000+1)
	}
	miss := c.Misses()
	for i := int64(3); i >= 0; i-- {
		c.FetchRange(i*1000, i*1000+1)
	}
	if c.Misses() != miss {
		t.Fatal("all four lines must be resident in a 4-way single-set cache")
	}
	c.FetchRange(9000, 9001) // evicts LRU
	if s := c.FetchRange(3000, 3001); s == 0 {
		t.Fatal("LRU line must have been evicted")
	}
}

// refICache is the cache model before the inline direct-mapped path:
// every set by modulus, every hit an LRU shuffle. It is the oracle the
// fast model must match miss for miss.
type refICache struct {
	lineShift        uint
	sets             int64
	ways             int
	penalty          int64
	tags             []int64
	accesses, misses int64
}

func newRefICache(cfg ICacheConfig) *refICache {
	if cfg.Ways <= 0 {
		cfg.Ways = 1
	}
	shift := uint(0)
	for 1<<shift < cfg.LineBytes {
		shift++
	}
	sets := cfg.SizeBytes / cfg.LineBytes / int64(cfg.Ways)
	if sets < 1 {
		sets = 1
	}
	tags := make([]int64, sets*int64(cfg.Ways))
	for i := range tags {
		tags[i] = -1
	}
	return &refICache{lineShift: shift, sets: sets, ways: cfg.Ways, penalty: cfg.Penalty, tags: tags}
}

func (c *refICache) FetchRange(start, end int64) int64 {
	if end <= start {
		return 0
	}
	var stall int64
	for line := start >> c.lineShift; line <= (end-1)>>c.lineShift; line++ {
		c.accesses++
		if !c.touch(line) {
			c.misses++
			stall += c.penalty
		}
	}
	return stall
}

func (c *refICache) touch(line int64) bool {
	base := int(line%c.sets) * c.ways
	ways := c.tags[base : base+c.ways]
	for i, t := range ways {
		if t == line {
			copy(ways[1:i+1], ways[:i])
			ways[0] = line
			return true
		}
	}
	copy(ways[1:], ways[:c.ways-1])
	ways[0] = line
	return false
}

// TestICacheMatchesReferenceModel is the differential for the inline
// direct-mapped path: over random fetch streams, stalls, accesses and
// misses must equal the reference model's, for direct-mapped caches
// over a power-of-two set count (the inline path) and for 2-, 3- and
// 4-way caches and a direct-mapped cache of 96 sets (touch).
func TestICacheMatchesReferenceModel(t *testing.T) {
	base := DefaultICache()
	configs := []ICacheConfig{
		base,
		{SizeBytes: base.SizeBytes, LineBytes: 32, Penalty: 6, Ways: 2},
		{SizeBytes: base.SizeBytes, LineBytes: 32, Penalty: 6, Ways: 4},
		{SizeBytes: base.SizeBytes, LineBytes: 32, Penalty: 6, Ways: 3}, // 341 sets
		{SizeBytes: 3 << 10, LineBytes: 32, Penalty: 6},                 // 96 sets, direct-mapped
		{SizeBytes: 1 << 10, LineBytes: 64, Penalty: 3, Ways: 2},
	}
	for _, cfg := range configs {
		// Fetches land in a region four times the cache, so streams
		// mix hits, conflict misses and (associative) LRU promotions;
		// lengths of up to 255 words span several lines.
		region := 4 * cfg.SizeBytes
		same := func(starts []uint16, lens []uint8) bool {
			fast, ref := NewICache(cfg), newRefICache(cfg)
			for i, s := range starts {
				start := int64(s) * 4 % region
				n := int64(1)
				if i < len(lens) {
					n = int64(lens[i])
				}
				if fast.FetchRange(start, start+4*n) != ref.FetchRange(start, start+4*n) {
					return false
				}
			}
			return fast.Accesses() == ref.accesses && fast.Misses() == ref.misses
		}
		if err := quick.Check(same, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%+v: %v", cfg, err)
		}
	}
}
