package core

import (
	"math/bits"
	"sync/atomic"

	"pq/internal/funnel"
)

// Counter is what the counter-tree queues need of an internal node's
// counter, on either twin (C as for Bin): fetch-and-increment, the
// paper's bounded fetch-and-decrement (bound zero), and their n-unit batch
// forms, SubN bounded below by zero like BFaD. Each returns the previous
// value.
type Counter[C any] interface {
	FaI(c C) int64
	BFaD(c C) int64
	AddN(c C, n int64) int64
	SubN(c C, n int64) int64
}

// atomicCounter implements the paper's shared counter (fetch-and-increment
// and bounded fetch-and-decrement) on a hardware atomic word — the
// "execute these operations in hardware" option of Figure 1.
type atomicCounter struct {
	v atomic.Int64
}

func (c *atomicCounter) FaI(struct{}) int64 { return c.v.Add(1) - 1 }

// BFaD returns the previous value, decrementing only if it exceeded the
// bound (zero).
func (c *atomicCounter) BFaD(struct{}) int64 {
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
func (c *atomicCounter) AddN(_ struct{}, n int64) int64 { return c.v.Add(n) - n }

// SubN is the n-unit bounded fetch-and-decrement: it subtracts
// min(n, prev) — never undershooting the zero bound — and returns prev,
// exactly as n sequential BFaD calls would net out.
func (c *atomicCounter) SubN(_ struct{}, n int64) int64 {
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

// funnelCounter is a bounded combining-funnel counter in a native
// tree's counter seam; FunnelTree uses it in the top cutoff levels.
type funnelCounter struct{ f *funnel.Counter }

func (c funnelCounter) FaI(struct{}) int64             { return c.f.FaI() }
func (c funnelCounter) BFaD(struct{}) int64            { return c.f.FaD() }
func (c funnelCounter) AddN(_ struct{}, n int64) int64 { return c.f.AddN(n) }
func (c funnelCounter) SubN(_ struct{}, n int64) int64 { return c.f.SubN(n) }

// CounterTree is Figure 3, written once for both twins: a complete binary
// tree whose internal nodes count the items in their left subtrees; bins
// at the leaves. delete-min descends by bounded decrements; insert fills
// its bin and ascends, incrementing every counter reached from the left
// (top-down insertion would race deletions, as the paper notes). With
// funnel counters in the top levels and funnel stacks as bins it is the
// paper's second new algorithm, FunnelTree. The priority range is rounded
// up to a power of two; surplus leaves are never used. C is the
// per-operation context (see Bin).
type CounterTree[C, V any] struct {
	NPri int
	// Counters is heap-indexed: Counters[1] is the root, Counters[0] is
	// unused, and len(Counters) == len(Bins).
	Counters []Counter[C]
	// Bins has one bin per leaf; leaf pri is heap node len(Bins)+pri.
	Bins  []Bin[C, V]
	Tally *Tally        // set by the simulated twin
	bufs  *batchPool[V] // nil on the simulated twin
}

// NumPriorities reports the fixed priority range.
func (q *CounterTree[C, V]) NumPriorities() int { return q.NPri }

// Insert adds v at priority pri: bin first, then bottom-up counter
// increments.
func (q *CounterTree[C, V]) Insert(c C, pri int, v V) {
	checkPri(pri, q.NPri)
	q.Bins[pri].Push(c, v)
	n := len(q.Bins) + pri
	for n > 1 {
		parent := n / 2
		if n == 2*parent { // ascending from the left child
			q.Counters[parent].FaI(c)
		}
		n = parent
	}
	q.Tally.ascent(len(q.Bins), pri)
}

// DeleteMin descends from the root: a successful bounded decrement
// reserves an item in the left subtree; otherwise go right.
func (q *CounterTree[C, V]) DeleteMin(c C) (V, bool) {
	nleaves := len(q.Bins)
	n := 1
	for n < nleaves {
		if q.Counters[n].BFaD(c) > 0 {
			n = 2 * n
		} else {
			n = 2*n + 1
		}
	}
	q.Tally.descent(nleaves, n-nleaves)
	return q.Bins[n-nleaves].Pop(c)
}

// InsertBatch fills the bins first (counters must never promise items the
// bins do not yet hold), then applies the aggregated counter increments —
// one AddN per touched node instead of one FaI per item — in
// TreeIncrements' order, deepest node first, preserving the bottom-up
// order of the single-item insert for every item's path.
func (q *CounterTree[C, V]) InsertBatch(c C, items []Item[V]) {
	checkBatch(items, q.NPri)
	if len(items) == 0 {
		return
	}
	q.Tally.add(TallyBatchInserts, 1)
	b := q.bufs.get()
	runs := b.GroupByPri(items)
	for _, run := range runs {
		q.Bins[run.Pri].PushN(c, run.Vals)
	}
	for _, inc := range b.TreeIncrements(len(q.Bins), runs) {
		q.Tally.add(TallyIncrements, inc.N)
		q.Counters[inc.Node].AddN(c, inc.N)
	}
	q.bufs.put(b)
}

// DeleteMinBatch is AppendDeleteMinBatch to a new slice with room for k.
func (q *CounterTree[C, V]) DeleteMinBatch(c C, k int) []Item[V] {
	return q.AppendDeleteMinBatch(c, make([]Item[V], 0, max(k, 0)), k)
}

// AppendDeleteMinBatch descends the tree once, reserving whole
// sub-batches with multi-unit bounded decrements instead of one BFaD per
// item, and appends what it takes to dst. In a FunnelTree a left subtree
// may under-deliver its reservation — elimination can leave counter
// ghosts, the same relaxation behind that queue's occasional
// spurious-empty DeleteMin — so the shortfall is retried on the right
// best-effort and the books rebalance exactly as they do for a failed
// single delete.
func (q *CounterTree[C, V]) AppendDeleteMinBatch(c C, dst []Item[V], k int) []Item[V] {
	if k <= 0 {
		return dst
	}
	q.Tally.add(TallyBatchDeletes, 1)
	q.Tally.add(TallyDescents, 1)
	b := q.bufs.get()
	q.takeBatch(c, b, 1, k, &dst)
	q.bufs.put(b)
	return dst
}

// takeBatch pops up to want items from the subtree rooted at heap node n,
// through b's popped values, appending to out and returning how many it
// got. At each internal node
// one SubN reserves min(want, counter) items from the left subtree — with
// lock or atomic counters it never overcounts left-subtree items (bins
// fill before counters rise), so the reservation is sound — and the
// remainder is sought on the right best-effort, where deeper counters
// bound the claim, mirroring how sequential deletes walk right on a zero
// counter.
func (q *CounterTree[C, V]) takeBatch(c C, b *Batch[V], n, want int, out *[]Item[V]) int {
	if want <= 0 {
		return 0
	}
	if nleaves := len(q.Bins); n >= nleaves {
		pri := n - nleaves
		b.popped = q.Bins[pri].PopN(c, b.popped[:0], want)
		for _, v := range b.popped {
			*out = append(*out, Item[V]{Pri: pri, Val: v})
		}
		clear(b.popped)
		return len(b.popped)
	}
	q.Tally.add(TallyTraversals, 1)
	left := int64(want)
	if prev := q.Counters[n].SubN(c, left); prev < left {
		left = prev
	}
	got := 0
	if left > 0 {
		got = q.takeBatch(c, b, 2*n, int(left), out)
	} else {
		q.Tally.add(TallyRightTurns, 1)
	}
	if got < want {
		got += q.takeBatch(c, b, 2*n+1, want-got, out)
	}
	return got
}

// simpleTree is the native counter-tree queue.
type simpleTree[V any] struct{ t CounterTree[struct{}, V] }

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
	nl := CeilPow2(npri)
	atomics := make([]atomicCounter, nl)
	counters := make([]Counter[struct{}], nl)
	for i := 1; i < nl; i++ {
		if TreeLevel(i) < cutoff {
			counters[i] = funnelCounter{funnel.NewCounter(*funnels, 0, true, 0)}
		} else {
			counters[i] = &atomics[i]
		}
	}
	return &simpleTree[V]{CounterTree[struct{}, V]{
		NPri:     npri,
		Counters: counters,
		Bins:     newBins[V](nl, fifo, funnels),
		bufs:     new(batchPool[V]),
	}}
}

// TreeLevel returns the level of heap-numbered node i (root = 0).
func TreeLevel(i int) int { return bits.Len(uint(i)) - 1 }

func (q *simpleTree[V]) NumPriorities() int             { return q.t.NumPriorities() }
func (q *simpleTree[V]) Insert(pri int, v V)            { q.t.Insert(struct{}{}, pri, v) }
func (q *simpleTree[V]) DeleteMin() (V, bool)           { return q.t.DeleteMin(struct{}{}) }
func (q *simpleTree[V]) InsertBatch(items []Item[V])    { q.t.InsertBatch(struct{}{}, items) }
func (q *simpleTree[V]) DeleteMinBatch(k int) []Item[V] { return q.t.DeleteMinBatch(struct{}{}, k) }
func (q *simpleTree[V]) AppendDeleteMinBatch(dst []Item[V], k int) []Item[V] {
	return q.t.AppendDeleteMinBatch(struct{}{}, dst, k)
}
