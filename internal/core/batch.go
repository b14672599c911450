package core

import "sync"

// Item pairs a priority with a value — the unit of batch operations.
type Item[V any] struct {
	Pri int
	Val V
}

// BatchQueue extends Queue with native batch operations that amortize
// synchronization over many items: one lock hold, funnel traversal, or
// counter RMW covers the whole batch instead of one per item. Every queue
// built by New implements it.
type BatchQueue[V any] interface {
	Queue[V]
	// InsertBatch adds every item. It panics if any priority is out of
	// range (checked before anything is inserted). Linearizable queues
	// apply the batch as one contiguous sequence of inserts; the
	// quiescently consistent queues give the batch their usual guarantee,
	// one insert per item.
	InsertBatch(items []Item[V])
	// DeleteMinBatch removes up to k items, returned in the order k
	// sequential DeleteMin calls would have yielded them (nondecreasing
	// priority at quiescence). Fewer than k items — including none — means
	// the queue ran dry, or appeared to under contention, partway through.
	DeleteMinBatch(k int) []Item[V]
	// AppendDeleteMinBatch is DeleteMinBatch appending to dst: a caller
	// that recycles dst takes a batch without allocating.
	AppendDeleteMinBatch(dst []Item[V], k int) []Item[V]
}

// All seven algorithms carry native batch fast paths.
var (
	_ BatchQueue[int] = (*singleLock[int])(nil)
	_ BatchQueue[int] = (*hunt[int])(nil)
	_ BatchQueue[int] = (*skipList[int])(nil)
	_ BatchQueue[int] = (*simpleLinear[int])(nil)
	_ BatchQueue[int] = (*simpleTree[int])(nil)
)

// checkBatch panics on the first out-of-range priority in items. Batch
// inserts call it before touching the queue, so a panic cannot leave a
// batch half-inserted.
func checkBatch[V any](items []Item[V], npri int) {
	for _, it := range items {
		checkPri(it.Pri, npri)
	}
}

// PriRun is a maximal run of batch values sharing one priority — the
// unit a per-priority bin consumes in one lock hold or central
// application.
type PriRun[V any] struct {
	Pri  int
	Vals []V
}

// Batch is the working memory of one batch operation: GroupByPri's
// counts, values and runs, TreeIncrements' nodes, and the values a
// batch delete pops from one bin. What a Batch method returns aliases
// that memory, so it is valid until the Batch's next use. The native
// queues keep their Batches in a batchPool, so a steady stream of
// batches allocates nothing; the zero value is ready to use.
type Batch[V any] struct {
	counts []int
	vals   []V
	runs   []PriRun[V]
	incs   []NodeInc
	popped []V
}

// batchPool recycles a queue's Batches. It is allocated apart from its
// queue: the runtime keeps every used sync.Pool reachable until two
// collections have passed, and a pool embedded in a queue would keep
// the whole queue, items and all, alive that long after its last use.
// A nil pool pools nothing; the simulated twin runs on one.
type batchPool[V any] struct{ p sync.Pool }

func (p *batchPool[V]) get() *Batch[V] {
	if p != nil {
		if b, ok := p.p.Get().(*Batch[V]); ok {
			return b
		}
	}
	return new(Batch[V])
}

// put recycles b once it has dropped its references to the batch's
// values, so a pooled Batch keeps none of them alive.
func (p *batchPool[V]) put(b *Batch[V]) {
	if p == nil {
		return
	}
	clear(b.vals)
	clear(b.runs)
	clear(b.popped)
	p.p.Put(b)
}

// GroupByPri groups a batch into per-priority runs in ascending priority
// order. The grouping is stable: equal-priority values keep their order
// in items. It is one counting pass over the batch and its priority span
// (at most the queue's priority range, which is bounded): count each
// priority, turn the counts into run offsets, and place every value at
// its run's next slot. Values are copied into one backing array, and
// each run's Vals is a full-capacity subslice of it, so an append cannot
// spill into the next run; items is neither modified nor retained.
// Priorities are not checked. Both twins group batches through it.
func (b *Batch[V]) GroupByPri(items []Item[V]) []PriRun[V] {
	if len(items) == 0 {
		return nil
	}
	lo, hi := items[0].Pri, items[0].Pri
	for _, it := range items[1:] {
		lo, hi = min(lo, it.Pri), max(hi, it.Pri)
	}
	counts := resize(b.counts, hi-lo+1)
	clear(counts)
	for _, it := range items {
		counts[it.Pri-lo]++
	}
	vals := resize(b.vals, len(items))
	runs := b.runs[:0]
	start := 0
	for i, n := range counts {
		if n > 0 {
			runs = append(runs, PriRun[V]{Pri: lo + i, Vals: vals[start : start+n : start+n]})
			counts[i], start = start, start+n
		}
	}
	for _, it := range items {
		vals[counts[it.Pri-lo]] = it.Val
		counts[it.Pri-lo]++
	}
	b.counts, b.vals, b.runs = counts, vals, runs
	return runs
}

// resize returns s with length n, reallocating only when its capacity
// is short; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// NodeInc is one counter-tree node's share of a batch insert: the
// counter at heap index Node rises by N.
type NodeInc struct {
	Node int
	N    int64
}

// TreeIncrements returns the counter increments a batch insert makes in
// a counter tree over nleaves leaves (a power of two; heap-indexed, the
// root at 1 and priority p's leaf at nleaves+p), given the batch's runs
// in ascending priority order as GroupByPri returns them. A single
// insert walks from its leaf to the root and increments every node whose
// left subtree it came from; the batch makes one increment per touched
// node, summed over its items, in strictly descending heap index —
// deepest level first — so every reservation a concurrent descent wins
// is already backed by the counters and bins below it, as single inserts
// guarantee by ascending. Both twins' InsertBatch apply it in order.
func (b *Batch[V]) TreeIncrements(nleaves int, runs []PriRun[V]) []NodeInc {
	if len(runs) == 0 {
		return nil
	}
	depth := 0
	for n := nleaves; n > 1; n /= 2 {
		depth++
	}
	// One buffer: the first len(runs) entries hold the walk's current
	// level (every node on some item's path, with how many items passed
	// through it), and the increments follow. A tree has nleaves-1
	// counters, so that bounds the increments too.
	buf := resize(b.incs, len(runs)+min(len(runs)*depth, nleaves-1))[:len(runs)]
	b.incs = buf
	// Leaves in descending order, so each level comes out descending.
	for i, run := range runs {
		buf[len(runs)-1-i] = NodeInc{Node: nleaves + run.Pri, N: int64(len(run.Vals))}
	}
	level, out := buf[:len(runs)], buf[len(runs):]
	for level[0].Node > 1 {
		next := level[:0]
		for _, c := range level {
			parent := c.Node / 2
			if c.Node == 2*parent {
				out = append(out, NodeInc{Node: parent, N: c.N})
			}
			if k := len(next); k > 0 && next[k-1].Node == parent {
				next[k-1].N += c.N
			} else {
				next = append(next, NodeInc{Node: parent, N: c.N})
			}
		}
		level = next
	}
	return out
}
