package simpq

import (
	"pq/internal/core"
	"pq/internal/sim"
)

// DefaultFunnelCutoff is the number of tree levels (from the root) whose
// counters use combining funnels in FunnelTree; deeper counters see far
// less traffic and use plain lock-based counters, exactly as the paper
// does ("only for counters at the top four levels of the tree").
const DefaultFunnelCutoff = 4

// treeCounter is one internal node's counter: a bounded FunnelCounter in
// the top cutoff levels of a FunnelTree, the lock-based Counter (bound 0)
// everywhere else.
type treeCounter struct {
	f *FunnelCounter // nil below the funnel cutoff
	c *Counter
}

func (t treeCounter) FaI(p *sim.Proc) uint64 {
	if t.f != nil {
		return t.f.FaI(p)
	}
	return t.c.FaI(p)
}

func (t treeCounter) BFaD(p *sim.Proc) uint64 {
	if t.f != nil {
		return t.f.BFaD(p)
	}
	return t.c.BFaD(p, 0)
}

func (t treeCounter) AddN(p *sim.Proc, n uint64) uint64 {
	if t.f != nil {
		return t.f.AddN(p, int64(n))
	}
	return t.c.AddN(p, n)
}

func (t treeCounter) BSubN(p *sim.Proc, n uint64) uint64 {
	if t.f != nil {
		return t.f.BSubN(p, int64(n))
	}
	return t.c.BSubN(p, n, 0)
}

func (t treeCounter) Metrics() Metrics {
	if t.f != nil {
		return t.f.Metrics()
	}
	return t.c.Metrics()
}

// SimpleTree is the paper's Figure 3 queue: a complete binary tree with
// one bin per leaf (priority) and a shared counter in each internal node
// counting the items in the node's left subtree. delete-min descends from
// the root using bounded fetch-and-decrement; insert places the item in
// its leaf bin first and then ascends, incrementing the counter of every
// ancestor it reaches from the left. With combining-funnel counters in
// the hottest (top) levels and funnel stacks as leaf bins it is the
// paper's second new algorithm, FunnelTree.
//
// The priority range is rounded up to a power of two; surplus leaves are
// simply never used.
type SimpleTree struct {
	npri     int
	nleaves  int
	counters []treeCounter // 1-based: counters[1] is the root, len = nleaves
	bins     []binLike     // one per leaf

	// Host-side internals counters (no simulated cost).
	descents     int64 // DeleteMin and DeleteMinBatch root-to-leaf passes
	rightTurns   int64 // descent steps that found a zero counter (went right)
	traversals   int64 // bounded decrements applied by descents
	increments   int64 // counter increments performed by inserts
	batchInserts int64 // InsertBatch calls
	batchDeletes int64 // DeleteMinBatch calls
}

// NewSimpleTree builds the tree queue with npri priorities, lock-based
// counters and lock-based bins of capacity maxItems.
func NewSimpleTree(m *sim.Machine, npri, maxItems int) *SimpleTree {
	return newTree(m, npri, maxItems, nil, 0, false)
}

// NewFunnelTree builds FunnelTree with the default funnel cut-off.
func NewFunnelTree(m *sim.Machine, npri, maxItems int, params FunnelParams) *SimpleTree {
	return newTree(m, npri, maxItems, &params, DefaultFunnelCutoff, false)
}

// NewFunnelTreeCutoff builds FunnelTree using funnel counters for the
// top cutoff levels and lock-based counters below — the ablation knob for
// the paper's Section 3.2 cut-off decision. cutoff <= 0 uses lock-based
// counters everywhere; a large cutoff uses funnels everywhere.
func NewFunnelTreeCutoff(m *sim.Machine, npri, maxItems int, params FunnelParams, cutoff int) *SimpleTree {
	return newTree(m, npri, maxItems, &params, cutoff, false)
}

// NewFunnelTreeDiscipline additionally selects the leaf-bin discipline:
// LIFO funnel stacks (false, the paper's default) or the Section 3.2
// hybrid FIFO bins with funnel elimination (true).
func NewFunnelTreeDiscipline(m *sim.Machine, npri, maxItems int, params FunnelParams, cutoff int, fifo bool) *SimpleTree {
	return newTree(m, npri, maxItems, &params, cutoff, fifo)
}

// newTree builds the tree: lock-based counters and bins when params is
// nil; otherwise funnel counters in the top cutoff levels and funnel
// stacks as bins. Counters 1…nl−1 are allocated before bins 0…nl−1; the
// order fixes every simulated address, and so every cycle count.
func newTree(m *sim.Machine, npri, maxItems int, params *FunnelParams, cutoff int, fifo bool) *SimpleTree {
	nl := ceilPow2(npri)
	q := &SimpleTree{npri: npri, nleaves: nl, counters: make([]treeCounter, nl)}
	for i := 1; i < nl; i++ {
		if level(i) < cutoff {
			// A node at level l sees roughly procs/2^l of the traffic;
			// size its funnel for that, which is the static analogue of
			// the paper's observation that deeper funnels shrink on their
			// own.
			nodeParams := scaledParams(*params, m.Procs()>>uint(level(i)))
			q.counters[i].f = NewFunnelCounter(m, nodeParams, true, 0)
		} else {
			q.counters[i].c = NewCounter(m)
		}
	}
	q.bins = newBins(m, nl, maxItems, params, fifo)
	return q
}

// scaledParams returns params resized for the given expected traffic,
// preserving explicit non-default tunings only in shape (attempts, spin,
// adaptivity).
func scaledParams(base FunnelParams, traffic int) FunnelParams {
	if traffic < 1 {
		traffic = 1
	}
	p := DefaultFunnelParams(traffic)
	p.Attempts = base.Attempts
	p.Adaptive = base.Adaptive
	for l := range p.Spin {
		if l < len(base.Spin) {
			p.Spin[l] = base.Spin[l]
		}
	}
	return p
}

// level returns the tree level of node i (root = level 0).
func level(i int) int {
	l := -1
	for i > 0 {
		i /= 2
		l++
	}
	return l
}

// NumPriorities reports the fixed priority range.
func (q *SimpleTree) NumPriorities() int { return q.npri }

// Metrics reports counter-traversal counts plus the summed internals of
// all counters (prefix "counter": "counter.lock" for lock-based ones,
// "counter.funnel" and the retirement counts for funnel ones) and bins
// (prefix "bin") — root-counter serialization is the mechanism the funnel
// counters remove, and their combining/elimination rates show how.
func (q *SimpleTree) Metrics() Metrics {
	m := Metrics{
		"descents":      float64(q.descents),
		"right_turns":   float64(q.rightTurns),
		"increments":    float64(q.increments),
		"batch_inserts": float64(q.batchInserts),
		"batch_deletes": float64(q.batchDeletes),
	}
	if q.descents > 0 {
		m["counter_traversals"] = float64(q.traversals)
	}
	for _, c := range q.counters[1:] {
		m.addSum("counter", c.Metrics())
	}
	for _, b := range q.bins {
		m.addSum("bin", b.Metrics())
	}
	m.finishFactor("counter.funnel")
	m.finishFactor("bin.funnel")
	return m
}

// Insert adds val at priority pri: bin first, then bottom-up counter
// increments (top-down insertion would race deletions, as the paper
// notes).
func (q *SimpleTree) Insert(p *sim.Proc, pri int, val uint64) {
	q.bins[pri].Push(p, val)
	// Tree nodes are numbered heap-style: leaf pri is node nleaves+pri.
	n := q.nleaves + pri
	for n > 1 {
		parent := n / 2
		if n == 2*parent { // ascending from the left child
			q.increments++
			q.counters[parent].FaI(p)
		}
		n = parent
	}
}

// DeleteMin descends from the root: a successful bounded decrement means
// an item is reserved in the left subtree; otherwise go right.
func (q *SimpleTree) DeleteMin(p *sim.Proc) (uint64, bool) {
	q.descents++
	n := 1
	for n < q.nleaves {
		q.traversals++
		if q.counters[n].BFaD(p) > 0 {
			n = 2 * n
		} else {
			q.rightTurns++
			n = 2*n + 1
		}
	}
	return q.bins[n-q.nleaves].Pop(p)
}

// InsertBatch fills every leaf bin first (one lock hold or central stack
// batch per distinct priority), then applies the aggregated counter
// increments in core.TreeIncrements' order — deepest nodes first, so
// every counter reservation a concurrent descent wins is already backed
// by the counters and bins below it, exactly as single inserts guarantee
// by ascending.
func (q *SimpleTree) InsertBatch(p *sim.Proc, items []BatchItem) {
	if len(items) == 0 {
		return
	}
	q.batchInserts++
	runs := core.GroupByPri(items)
	for _, run := range runs {
		q.bins[run.Pri].PushN(p, run.Vals)
	}
	for _, inc := range core.TreeIncrements(q.nleaves, runs) {
		q.increments += inc.N
		q.counters[inc.Node].AddN(p, uint64(inc.N))
	}
}

// DeleteMinBatch reserves up to k items in one root-to-leaf pass using
// multi-unit bounded decrements: each counter yields min(want, value)
// to the left subtree and the remainder is sought on the right. In a
// FunnelTree, reserved items may transiently be unavailable when a racing
// insert has raised counters ahead of its push landing — the
// quiescent-consistency relaxation it already accepts for single
// deletes — so the batch may run short; the books rebalance as those
// pushes land.
func (q *SimpleTree) DeleteMinBatch(p *sim.Proc, k int) []BatchItem {
	if k < 1 {
		return nil
	}
	q.batchDeletes++
	q.descents++
	var out []BatchItem
	q.takeBatch(p, 1, k, &out)
	return out
}

// takeBatch collects up to want items from the subtree rooted at n,
// reporting how many it delivered.
func (q *SimpleTree) takeBatch(p *sim.Proc, n, want int, out *[]BatchItem) int {
	if want <= 0 {
		return 0
	}
	if n >= q.nleaves {
		pri := n - q.nleaves
		vals := q.bins[pri].PopN(p, want)
		for _, v := range vals {
			*out = append(*out, BatchItem{Pri: pri, Val: v})
		}
		return len(vals)
	}
	q.traversals++
	left := uint64(want)
	if prev := q.counters[n].BSubN(p, left); prev < left {
		left = prev
	}
	got := 0
	if left > 0 {
		got = q.takeBatch(p, 2*n, int(left), out)
	} else {
		q.rightTurns++
	}
	if got < want {
		got += q.takeBatch(p, 2*n+1, want-got, out)
	}
	return got
}

var (
	_ Queue      = (*SimpleTree)(nil)
	_ BatchQueue = (*SimpleTree)(nil)
)

// ceilPow2 returns the smallest power of two >= n (and at least 1).
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p *= 2
	}
	return p
}
