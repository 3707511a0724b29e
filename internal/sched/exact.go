package sched

import (
	"math"

	"pathsched/internal/machine"
)

// This file is the exact compaction baseline (ROADMAP "optimal-schedule
// and combinatorial baselines", DESIGN.md §13): a branch-and-bound /
// memoized-DFS search that finds a provably minimum-span schedule for
// one merged superblock under the same legality rules the list
// scheduler and check.Schedules enforce — dependence latencies,
// FuncUnits issue slots per cycle, BranchPerCycle control slots, and
// latency-0 edges permitting same-cycle issue in program order.
//
// The search space is restricted, without losing optimality, to
// schedules where every cycle's issue set is maximal: if a ready,
// resource-feasible instruction exists, the current cycle may not
// close. Any schedule left-shifts to such a form — moving an
// instruction to an earlier feasible cycle only relaxes its successors
// and frees later resources — so some optimal schedule survives the
// restriction. Within a cycle, candidates are tried in increasing node
// index; dependence edges only point forward, so every legal cycle set
// is enumerable in index order exactly once.

// ExactConfig configures the exact scheduler (Options.Exact).
type ExactConfig struct {
	// Enabled switches compaction from the list scheduler to the exact
	// branch-and-bound search (falling back to the list schedule above
	// the budgets below, with the block counted as Bounded).
	Enabled bool
	// NodeBudget is the largest region (instruction count after DCE/VN)
	// the search will attempt; larger regions keep their list schedule.
	// 0 means the default (32); values above 64 are capped — the search
	// state packs the scheduled set into one 64-bit mask.
	NodeBudget int
	// SearchBudget bounds branch-and-bound steps (node expansions plus
	// placements) per region; when exhausted the best schedule found so
	// far — at worst the list schedule — is kept and the block is
	// counted as Bounded. 0 means the default (200000).
	SearchBudget int64
}

const (
	defaultNodeBudget   = 32
	maxNodeBudget       = 64
	defaultSearchBudget = 200000
)

// Normalized resolves zero fields to their defaults and caps
// NodeBudget, so explicit-default and default-by-omission configs are
// identical (the pipeline cache keys on the normalized form). The
// zero/disabled config normalizes to itself.
func (c ExactConfig) Normalized() ExactConfig {
	if !c.Enabled {
		return ExactConfig{}
	}
	if c.NodeBudget <= 0 {
		c.NodeBudget = defaultNodeBudget
	}
	if c.NodeBudget > maxNodeBudget {
		c.NodeBudget = maxNodeBudget
	}
	if c.SearchBudget <= 0 {
		c.SearchBudget = defaultSearchBudget
	}
	return c
}

// exactStatus classifies one region's trip through the exact scheduler.
type exactStatus uint8

const (
	// exactProved: the search ran to completion; the returned span is
	// provably minimal (and the static lower bound certifies it in the
	// common case where they coincide).
	exactProved exactStatus = iota
	// exactBoundedNodes: the region exceeded NodeBudget; list schedule
	// kept.
	exactBoundedNodes
	// exactBoundedSearch: SearchBudget ran out mid-search; the best
	// legal schedule found so far is kept, without an optimality proof.
	exactBoundedSearch
)

// GapStats accumulates list-vs-exact span statistics across the
// regions of one compilation (Options.GapStats). Sums over proved
// regions only are what make PctOfOptimal a sound "% of optimal":
// bounded regions have no optimality certificate to compare against.
type GapStats struct {
	// Blocks counts scheduled regions (superblocks or basic blocks;
	// regalloc-fallback reschedules count once, as the kept attempt).
	Blocks int64
	// Proved counts regions with a completed, provably optimal search.
	Proved int64
	// Bounded counts fallbacks (NodeBudget exceeded or SearchBudget
	// exhausted); BoundedSearch is the budget-exhausted subset.
	Bounded       int64
	BoundedSearch int64
	// Improved counts proved regions where the exact span strictly beat
	// the list schedule.
	Improved int64
	// ListSpan and ExactSpan sum the two schedulers' spans over proved
	// regions.
	ListSpan  int64
	ExactSpan int64
}

// PctOfOptimal reports the list scheduler's quality over proved
// regions as a percentage of the optimal span sum: 100 means every
// list schedule was optimal; 98 means list schedules were 1/0.98x
// longer in aggregate.
func (g *GapStats) PctOfOptimal() float64 {
	if g.ListSpan == 0 {
		return 100
	}
	return 100 * float64(g.ExactSpan) / float64(g.ListSpan)
}

// gapRecord is one region's outcome, filled by scheduleNodes and folded
// into Options.GapStats by compactSuperblock once the kept attempt is
// known (the regalloc fallback reschedules, and only the final
// schedule is installed).
type gapRecord struct {
	valid               bool
	status              exactStatus
	listSpan, exactSpan int32
}

// add folds one region's record into the stats.
func (g *GapStats) add(rec gapRecord) {
	if !rec.valid {
		return
	}
	g.Blocks++
	switch rec.status {
	case exactProved:
		g.Proved++
		g.ListSpan += int64(rec.listSpan)
		g.ExactSpan += int64(rec.exactSpan)
		if rec.exactSpan < rec.listSpan {
			g.Improved++
		}
	case exactBoundedSearch:
		g.Bounded++
		g.BoundedSearch++
	default:
		g.Bounded++
	}
}

// exactKey identifies a search state at a cycle boundary: the set of
// scheduled nodes plus, for each unscheduled node, how far its earliest
// start sits past the new cycle (2 bits per node, exact whenever the
// maximum edge latency is ≤ 4 — delta is at most maxLat-1). Two visits
// with equal keys need identical numbers of further cycles, so the
// later-cycle visit is dominated.
type exactKey struct {
	mask, d0, d1 uint64
}

// estUndo is one entry of the DFS backtracking stack: est[idx] held est
// before the placement being undone raised it.
type estUndo struct {
	idx, est int32
}

// exactSchedule finds a minimum-span schedule for nodes over g, or the
// best schedule it can prove legal within cfg's budgets. It first runs
// listSchedule — propagating its *CycleError unchanged, so cyclic
// graphs fail fast instead of hanging the search — and uses that
// schedule as the incumbent, guaranteeing the result is never worse
// than the list schedule. The returned cycles live in scratch storage
// (valid until the next exact/list call on s); listSpan is the list
// scheduler's span for gap accounting. cfg must be normalized.
func exactSchedule(nodes []node, g *ddg, mc machine.Config, cfg ExactConfig, s *scratch) (cycles []int32, span, listSpan int32, status exactStatus, err error) {
	listCycles, listSpan, err := listSchedule(nodes, g, mc, s)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	n := len(nodes)
	best := i32buf(&s.exBest, n)
	copy(best, listCycles[:n])
	if n > cfg.NodeBudget {
		return best, listSpan, listSpan, exactBoundedNodes, nil
	}

	// Static lower bound: the certificate. Critical path (some chain
	// must run end to end), issue width (n ops through W slots), and
	// the control slot (every branch takes a cycle of its own with
	// BranchPerCycle=1).
	W, B := int32(mc.FuncUnits), int32(mc.BranchPerCycle)
	var branchMask uint64
	nBranches := int32(0)
	staticLB := int32(0)
	maxLat := int32(0)
	for i := 0; i < n; i++ {
		if nodes[i].ins.Op.IsBranch() {
			branchMask |= 1 << uint(i)
			nBranches++
		}
		if h := g.height[i] + 1; h > staticLB {
			staticLB = h
		}
		for _, e := range g.succs[i] {
			if e.lat > maxLat {
				maxLat = e.lat
			}
		}
	}
	if lb := (int32(n) + W - 1) / W; lb > staticLB {
		staticLB = lb
	}
	if lb := (nBranches + B - 1) / B; lb > staticLB {
		staticLB = lb
	}
	if listSpan <= staticLB {
		// The list schedule meets the bound: optimal without searching.
		return best, listSpan, listSpan, exactProved, nil
	}

	// Branch and bound. All working state lives in the scratch.
	cyc := i32fill(&s.exCyc, n, -1)
	est := i32zero(&s.exEst, n)
	npred := i32buf(&s.exNpred, n)
	for i := 0; i < n; i++ {
		npred[i] = int32(g.npreds[i])
	}
	undo := s.exUndo[:0]
	memoOK := maxLat <= 4 // 2-bit deltas stay exact
	memo := s.exMemo
	if memoOK {
		if memo == nil {
			memo = map[exactKey]int32{}
			s.exMemo = memo
		}
		clear(memo)
	}

	bestSpan := listSpan
	var mask uint64
	remaining := n
	steps := int64(0)
	aborted, proved := false, false

	var dfs func(lastIdx int, cycle int32, used, brUsed int32)
	dfs = func(lastIdx int, cycle int32, used, brUsed int32) {
		steps++
		if steps > cfg.SearchBudget {
			aborted = true
			return
		}
		// Lower bounds over the unscheduled suffix; prune unless this
		// subtree can strictly beat the incumbent.
		lb := int32(0)
		remB := int32(0)
		for i := 0; i < n; i++ {
			if cyc[i] >= 0 {
				continue
			}
			if branchMask>>uint(i)&1 != 0 {
				remB++
			}
			e := est[i]
			if e < cycle {
				e = cycle
			}
			if v := e + g.height[i] + 1; v > lb {
				lb = v
			}
		}
		if r := int32(remaining) - (W - used); r > 0 {
			if v := cycle + 1 + (r+W-1)/W; v > lb {
				lb = v
			}
		}
		if rb := remB - (B - brUsed); rb > 0 {
			if v := cycle + 1 + (rb+B-1)/B; v > lb {
				lb = v
			}
		}
		if lb >= bestSpan {
			return
		}

		// Can anything issue this cycle? (Maximality gate for advancing.)
		placeable := false
		if used < W {
			for i := 0; i < n; i++ {
				if cyc[i] >= 0 || npred[i] != 0 || est[i] > cycle {
					continue
				}
				if branchMask>>uint(i)&1 != 0 && brUsed >= B {
					continue
				}
				placeable = true
				break
			}
		}

		// Branch 1..k: place each candidate after lastIdx at this cycle.
		if used < W {
			for i := lastIdx + 1; i < n; i++ {
				if cyc[i] >= 0 || npred[i] != 0 || est[i] > cycle {
					continue
				}
				isBr := branchMask>>uint(i)&1 != 0
				if isBr && brUsed >= B {
					continue
				}
				steps++
				cyc[i] = cycle
				mask |= 1 << uint(i)
				remaining--
				mark := len(undo)
				for _, e := range g.succs[i] {
					npred[e.to]--
					if t := cycle + e.lat; t > est[e.to] {
						undo = append(undo, estUndo{int32(e.to), est[e.to]})
						est[e.to] = t
					}
				}
				if remaining == 0 {
					if cycle+1 < bestSpan {
						bestSpan = cycle + 1
						copy(best, cyc)
						if bestSpan <= staticLB {
							proved = true // hit the certificate: done
						}
					}
				} else {
					nb := brUsed
					if isBr {
						nb++
					}
					dfs(i, cycle, used+1, nb)
				}
				for _, e := range g.succs[i] {
					npred[e.to]++
				}
				for len(undo) > mark {
					u := undo[len(undo)-1]
					undo = undo[:len(undo)-1]
					est[u.idx] = u.est
				}
				remaining++
				mask &^= 1 << uint(i)
				cyc[i] = -1
				if aborted || proved {
					return
				}
			}
		}

		// Final branch: close the cycle — legal only when the issue set
		// is maximal — and jump to the next cycle anything can start at.
		if !placeable {
			next := int32(math.MaxInt32)
			for i := 0; i < n; i++ {
				if cyc[i] < 0 && npred[i] == 0 && est[i] < next {
					next = est[i]
				}
			}
			// Ready nodes always exist (the graph is acyclic: the list
			// schedule succeeded), and a ready-now node only fails the
			// placeable gate on resources, forcing cycle+1.
			if next <= cycle {
				next = cycle + 1
			}
			if memoOK {
				var d0, d1 uint64
				for i := 0; i < n; i++ {
					if cyc[i] >= 0 {
						continue
					}
					if d := est[i] - next; d > 0 {
						if i < 32 {
							d0 |= uint64(d) << uint(2*i)
						} else {
							d1 |= uint64(d) << uint(2*(i-32))
						}
					}
				}
				k := exactKey{mask, d0, d1}
				if prev, ok := memo[k]; ok && next >= prev {
					return // dominated: an earlier visit covered this state
				}
				memo[k] = next
			}
			dfs(-1, next, 0, 0)
		}
	}

	dfs(-1, 0, 0, 0)
	s.exUndo = undo[:0]

	status = exactProved
	if aborted {
		status = exactBoundedSearch
	}
	span = bestSpan
	return best, span, listSpan, status, nil
}
