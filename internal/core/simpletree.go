package core

import (
	"sync/atomic"

	"pq/internal/funnel"
)

// atomicCounter implements the paper's shared counter (fetch-and-increment
// and bounded fetch-and-decrement) on a hardware atomic word — the
// "execute these operations in hardware" option of Figure 1.
type atomicCounter struct {
	v atomic.Int64
}

func (c *atomicCounter) FaI() int64 { return c.v.Add(1) - 1 }

// BFaD returns the previous value, decrementing only if it exceeded the
// bound (zero).
func (c *atomicCounter) BFaD() int64 {
	for {
		old := c.v.Load()
		if old <= 0 {
			return old
		}
		if c.v.CompareAndSwap(old, old-1) {
			return old
		}
	}
}

// AddN is an n-unit fetch-and-increment: one RMW for the whole batch.
func (c *atomicCounter) AddN(n int64) int64 { return c.v.Add(n) - n }

// SubN is the n-unit bounded fetch-and-decrement: it subtracts
// min(n, prev) — never undershooting the zero bound — and returns prev,
// exactly as n sequential BFaD calls would net out.
func (c *atomicCounter) SubN(n int64) int64 {
	for {
		old := c.v.Load()
		take := n
		if take > old {
			take = old
		}
		if take <= 0 {
			return old
		}
		if c.v.CompareAndSwap(old, old-take) {
			return old
		}
	}
}

// DefaultFunnelCutoff is the number of tree levels (from the root) whose
// counters use combining funnels in FunnelTree, as in the paper ("only
// for counters at the top four levels of the tree"); deeper counters see
// far less traffic and use plain atomic counters.
const DefaultFunnelCutoff = 4

// treeCounter is one internal node's counter: a combining-funnel counter
// in the top cutoff levels of a FunnelTree, the atomic word everywhere
// else. AddN and SubN are the multi-unit batch forms, SubN bounded below
// by zero like BFaD.
type treeCounter struct {
	f *funnel.Counter // nil below the funnel cutoff
	a atomicCounter
}

func (c *treeCounter) FaI() int64 {
	if c.f != nil {
		return c.f.FaI()
	}
	return c.a.FaI()
}

func (c *treeCounter) BFaD() int64 {
	if c.f != nil {
		return c.f.FaD()
	}
	return c.a.BFaD()
}

func (c *treeCounter) AddN(n int64) int64 {
	if c.f != nil {
		return c.f.AddN(n)
	}
	return c.a.AddN(n)
}

func (c *treeCounter) SubN(n int64) int64 {
	if c.f != nil {
		return c.f.SubN(n)
	}
	return c.a.SubN(n)
}

// simpleTree is Figure 3: a complete binary tree whose internal nodes
// count the items in their left subtrees; bins at the leaves. delete-min
// descends by bounded decrements; insert fills its bin and ascends,
// incrementing every counter reached from the left. With funnel counters
// in the top levels and funnel stacks as bins it is the paper's second
// new algorithm, FunnelTree.
type simpleTree[V any] struct {
	npri     int
	nleaves  int
	counters []treeCounter // 1-based
	bins     []binLike[V]
}

// NewSimpleTree builds the counter-tree queue with atomic counters and
// lock-based bins.
func NewSimpleTree[V any](cfg Config) Queue[V] {
	return newTree[V](cfg.Priorities, 0, nil, cfg.FIFOBins)
}

// NewFunnelTree builds the counter-tree queue with funnel counters in the
// top Config.FunnelCutoff levels and funnel stacks as bins.
func NewFunnelTree[V any](cfg Config) Queue[V] {
	params := funnelParamsFor(cfg)
	cutoff := cfg.FunnelCutoff
	if cutoff == 0 {
		cutoff = DefaultFunnelCutoff
	}
	return newTree[V](cfg.Priorities, cutoff, &params, cfg.FIFOBins)
}

// newTree builds the tree: funnel counters tuned by *funnels in the top
// cutoff levels and funnel-stack bins when funnels is set, atomic counters
// and lock-based bins otherwise.
func newTree[V any](npri, cutoff int, funnels *funnel.Params, fifo bool) *simpleTree[V] {
	nl := ceilPow2(npri)
	q := &simpleTree[V]{
		npri:     npri,
		nleaves:  nl,
		counters: make([]treeCounter, nl),
		bins:     newBins[V](nl, fifo, funnels),
	}
	for i := 1; i < nl; i++ {
		if treeLevel(i) < cutoff {
			q.counters[i].f = funnel.NewCounter(*funnels, 0, true, 0)
		}
	}
	return q
}

// treeLevel returns the level of heap-numbered node i (root = 0).
func treeLevel(i int) int {
	l := -1
	for i > 0 {
		i /= 2
		l++
	}
	return l
}

func (q *simpleTree[V]) NumPriorities() int { return q.npri }

func (q *simpleTree[V]) Insert(pri int, v V) {
	checkPri(pri, q.npri)
	q.bins[pri].Push(v)
	n := q.nleaves + pri
	for n > 1 {
		parent := n / 2
		if n == 2*parent {
			q.counters[parent].FaI()
		}
		n = parent
	}
}

func (q *simpleTree[V]) DeleteMin() (V, bool) {
	n := 1
	for n < q.nleaves {
		if q.counters[n].BFaD() > 0 {
			n = 2 * n
		} else {
			n = 2*n + 1
		}
	}
	return q.bins[n-q.nleaves].Pop()
}

// InsertBatch fills the bins first (counters must never promise items the
// bins do not yet hold), then applies the aggregated counter increments —
// one AddN per touched node instead of one FaI per item — in
// TreeIncrements' order, deepest node first, preserving the bottom-up
// order of the single-item insert for every item's path.
func (q *simpleTree[V]) InsertBatch(items []Item[V]) {
	checkBatch(items, q.npri)
	runs := GroupByPri(items)
	for _, run := range runs {
		q.bins[run.Pri].PushN(run.Vals)
	}
	for _, inc := range TreeIncrements(q.nleaves, runs) {
		q.counters[inc.Node].AddN(inc.N)
	}
}

// DeleteMinBatch descends the tree once, reserving whole sub-batches with
// multi-unit bounded decrements instead of one BFaD per item. In a
// FunnelTree a left subtree may under-deliver its reservation —
// elimination can leave counter ghosts, the same relaxation behind that
// queue's occasional spurious-empty DeleteMin — so the shortfall is
// retried on the right best-effort and the books rebalance exactly as
// they do for a failed single delete.
func (q *simpleTree[V]) DeleteMinBatch(k int) []Item[V] {
	if k <= 0 {
		return nil
	}
	out := make([]Item[V], 0, k)
	q.takeBatch(1, k, &out)
	return out
}

// takeBatch pops up to want items from the subtree rooted at heap node n,
// appending to out and returning how many it got. At each internal node
// one SubN reserves min(want, counter) items from the left subtree — with
// atomic counters it never overcounts left-subtree items (bins fill before
// counters rise), so the reservation is sound — and the remainder is sought on the
// right best-effort, where deeper counters bound the claim, mirroring how
// sequential deletes walk right on a zero counter.
func (q *simpleTree[V]) takeBatch(n, want int, out *[]Item[V]) int {
	if want <= 0 {
		return 0
	}
	if n >= q.nleaves {
		pri := n - q.nleaves
		vals := q.bins[pri].PopN(want)
		for _, v := range vals {
			*out = append(*out, Item[V]{Pri: pri, Val: v})
		}
		return len(vals)
	}
	left := int64(want)
	if prev := q.counters[n].SubN(left); prev < left {
		left = prev
	}
	got := 0
	if left > 0 {
		got = q.takeBatch(2*n, int(left), out)
	}
	if got < want {
		got += q.takeBatch(2*n+1, want-got, out)
	}
	return got
}
