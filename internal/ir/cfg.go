package ir

// CFG caches the control-flow structure of a procedure: successor and
// predecessor lists, a reverse postorder, immediate dominators and
// back edges. Build one with NewCFG after any structural
// change to the procedure; a CFG is immutable once built.
type CFG struct {
	Proc *Proc

	succs [][]BlockID
	preds [][]BlockID

	// rpo is a reverse postorder over blocks reachable from the entry;
	// rpoIndex[b] is the position of b in rpo, or -1 if unreachable.
	rpo      []BlockID
	rpoIndex []int32

	// idom[b] is the immediate dominator of b (entry's idom is itself);
	// -1 for unreachable blocks.
	idom []BlockID

	// backEdges holds every back edge as a {from, to} pair.
	backEdges map[[2]BlockID]bool
}

// NewCFG computes the control-flow analyses for p.
func NewCFG(p *Proc) *CFG {
	n := len(p.Blocks)
	c := &CFG{
		Proc:      p,
		succs:     make([][]BlockID, n),
		preds:     make([][]BlockID, n),
		rpoIndex:  make([]int32, n),
		idom:      make([]BlockID, n),
		backEdges: make(map[[2]BlockID]bool),
	}
	for i := range p.Blocks {
		c.succs[i] = p.Blocks[i].Succs()
	}
	for from, ss := range c.succs {
		for _, s := range ss {
			c.preds[s] = append(c.preds[s], BlockID(from))
		}
	}
	c.computeRPO()
	c.computeDominators()
	c.findBackEdges()
	return c
}

// Succs returns the successors of b. The result must not be modified.
func (c *CFG) Succs(b BlockID) []BlockID { return c.succs[b] }

// Preds returns the predecessors of b. The result must not be modified.
func (c *CFG) Preds(b BlockID) []BlockID { return c.preds[b] }

// RPO returns the reverse postorder of reachable blocks. The result
// must not be modified.
func (c *CFG) RPO() []BlockID { return c.rpo }

// Reachable reports whether b is reachable from the entry.
func (c *CFG) Reachable(b BlockID) bool { return c.rpoIndex[b] >= 0 }

// IDom returns the immediate dominator of b, or -1 if b is
// unreachable. The entry block's immediate dominator is itself.
func (c *CFG) IDom(b BlockID) BlockID { return c.idom[b] }

// Dominates reports whether a dominates b (reflexively).
func (c *CFG) Dominates(a, b BlockID) bool {
	if !c.Reachable(a) || !c.Reachable(b) {
		return false
	}
	entry := c.Proc.Entry().ID
	for {
		if a == b {
			return true
		}
		if b == entry {
			return false
		}
		b = c.idom[b]
	}
}

// IsBackEdge reports whether from→to is a back edge (to dominates from).
func (c *CFG) IsBackEdge(from, to BlockID) bool { return c.backEdges[[2]BlockID{from, to}] }

func (c *CFG) computeRPO() {
	n := len(c.Proc.Blocks)
	for i := range c.rpoIndex {
		c.rpoIndex[i] = -1
	}
	visited := make([]bool, n)
	post := make([]BlockID, 0, n)

	// Iterative DFS to avoid stack overflow on large generated CFGs.
	type frame struct {
		b    BlockID
		next int
	}
	stack := []frame{{b: c.Proc.Entry().ID}}
	visited[c.Proc.Entry().ID] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		ss := c.succs[f.b]
		if f.next < len(ss) {
			s := ss[f.next]
			f.next++
			if !visited[s] {
				visited[s] = true
				stack = append(stack, frame{b: s})
			}
			continue
		}
		post = append(post, f.b)
		stack = stack[:len(stack)-1]
	}
	c.rpo = make([]BlockID, len(post))
	for i := range post {
		c.rpo[i] = post[len(post)-1-i]
	}
	for i, b := range c.rpo {
		c.rpoIndex[b] = int32(i)
	}
}

// computeDominators uses the Cooper–Harvey–Kennedy iterative algorithm.
func (c *CFG) computeDominators() {
	for i := range c.idom {
		c.idom[i] = NoBlock
	}
	entry := c.Proc.Entry().ID
	c.idom[entry] = entry
	changed := true
	for changed {
		changed = false
		for _, b := range c.rpo {
			if b == entry {
				continue
			}
			var newIdom BlockID = NoBlock
			for _, p := range c.preds[b] {
				if c.idom[p] == NoBlock {
					continue // not yet processed or unreachable
				}
				if newIdom == NoBlock {
					newIdom = p
				} else {
					newIdom = c.intersect(p, newIdom)
				}
			}
			if newIdom != NoBlock && c.idom[b] != newIdom {
				c.idom[b] = newIdom
				changed = true
			}
		}
	}
}

func (c *CFG) intersect(a, b BlockID) BlockID {
	for a != b {
		for c.rpoIndex[a] > c.rpoIndex[b] {
			a = c.idom[a]
		}
		for c.rpoIndex[b] > c.rpoIndex[a] {
			b = c.idom[b]
		}
	}
	return a
}

func (c *CFG) findBackEdges() {
	for from := range c.succs {
		f := BlockID(from)
		if !c.Reachable(f) {
			continue
		}
		for _, to := range c.succs[from] {
			// An edge is a back edge when its target dominates its
			// source (this covers self-loops via reflexivity).
			if c.Dominates(to, f) {
				c.backEdges[[2]BlockID{f, to}] = true
			}
		}
	}
}
