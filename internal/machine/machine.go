// Package machine describes the experimental machine model of §3.2: a
// very powerful VLIW derived from the Digital Alpha ISA, with 8
// universal functional units, one control operation per cycle, a
// 128-register integer file, and single-cycle instruction latencies
// (an optional "realistic" latency table is provided; the paper notes
// the benefit of path-based scheduling grows under it). The package
// also implements the 32KB direct-mapped instruction cache with
// 32-byte lines and a 6-cycle miss penalty used in §4.
package machine

import "pathsched/internal/ir"

// Config describes the VLIW core.
type Config struct {
	// FuncUnits is the number of universal functional units (8).
	FuncUnits int
	// BranchPerCycle limits control operations per cycle (1).
	BranchPerCycle int
	// Realistic enables multi-cycle latencies for loads and multiplies
	// instead of the paper's single-cycle baseline.
	Realistic bool
}

// Default returns the paper's experimental machine.
func Default() Config {
	return Config{FuncUnits: 8, BranchPerCycle: 1}
}

// Latency returns the producer latency of op in cycles: the minimum
// distance to a consumer of its result.
func (c Config) Latency(op ir.Opcode) int32 {
	if !c.Realistic {
		return 1
	}
	switch op {
	case ir.OpLoad:
		return 3
	case ir.OpMul, ir.OpMulI:
		return 3
	case ir.OpCall:
		return 1
	default:
		return 1
	}
}

// ICache is a set-associative instruction cache with LRU replacement
// (the paper's configuration is direct-mapped, i.e. associativity 1).
// It implements interp.FetchSink: every fetched byte range is
// decomposed into lines, and each miss charges the configured penalty.
type ICache struct {
	lineShift uint
	sets      int64
	direct    bool // one way over a power-of-two set count: FetchRange indexes by mask, no LRU order
	ways      int
	penalty   int64
	// tags[set*ways .. set*ways+ways) hold the set's lines in LRU
	// order, most recently used first; -1 is empty.
	tags []int64

	accesses int64
	misses   int64
}

// ICacheConfig sizes an instruction cache.
type ICacheConfig struct {
	SizeBytes int64 // total capacity (32 KB)
	LineBytes int64 // line size (32 B), must be a power of two
	Penalty   int64 // stall cycles per miss (6)
	Ways      int   // associativity; 0 or 1 = direct-mapped
}

// DefaultICache is the paper's 32KB direct-mapped, 32-byte-line cache
// with a 6-cycle miss penalty.
func DefaultICache() ICacheConfig {
	return ICacheConfig{SizeBytes: 32 << 10, LineBytes: 32, Penalty: 6}
}

// NewICache builds an empty cache.
func NewICache(cfg ICacheConfig) *ICache {
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
	return &ICache{
		lineShift: shift,
		sets:      sets,
		direct:    cfg.Ways == 1 && sets&(sets-1) == 0,
		ways:      cfg.Ways,
		penalty:   cfg.Penalty,
		tags:      tags,
	}
}

// FetchRange touches every line in [start, end) and returns the stall
// cycles incurred by misses.
func (c *ICache) FetchRange(start, end int64) int64 {
	if end <= start {
		return 0
	}
	first := start >> c.lineShift
	last := (end - 1) >> c.lineShift
	c.accesses += last - first + 1
	var misses int64
	if c.direct {
		// The paper's cache: one tag per set and no LRU order to keep,
		// inline and without a divide.
		mask := c.sets - 1
		for line := first; line <= last; line++ {
			if t := &c.tags[line&mask]; *t != line {
				*t = line
				misses++
			}
		}
	} else {
		for line := first; line <= last; line++ {
			if !c.touch(line) {
				misses++
			}
		}
	}
	c.misses += misses
	return misses * c.penalty
}

// touch looks the line up in its set, promotes it to MRU, and reports
// whether it hit. On a miss the LRU way is replaced.
func (c *ICache) touch(line int64) bool {
	set := line % c.sets
	base := int(set) * c.ways
	ways := c.tags[base : base+c.ways]
	for i, t := range ways {
		if t == line {
			// Promote to MRU: shift earlier entries down.
			copy(ways[1:i+1], ways[:i])
			ways[0] = line
			return true
		}
	}
	copy(ways[1:], ways[:c.ways-1])
	ways[0] = line
	return false
}

// Accesses and Misses report line-granularity traffic.
func (c *ICache) Accesses() int64 { return c.accesses }
func (c *ICache) Misses() int64   { return c.misses }

// MissRate returns misses/accesses, or 0 before any access.
func (c *ICache) MissRate() float64 {
	if c.accesses == 0 {
		return 0
	}
	return float64(c.misses) / float64(c.accesses)
}

// Reset empties the cache and zeroes its counters.
func (c *ICache) Reset() {
	for i := range c.tags {
		c.tags[i] = -1
	}
	c.accesses, c.misses = 0, 0
}
