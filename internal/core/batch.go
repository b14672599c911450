package core

import "sort"

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
}

// All seven algorithms carry native batch fast paths.
var (
	_ BatchQueue[int] = (*singleLock[int])(nil)
	_ BatchQueue[int] = (*hunt[int])(nil)
	_ BatchQueue[int] = (*skipList[int])(nil)
	_ BatchQueue[int] = (*simpleLinear[int])(nil)
	_ BatchQueue[int] = (*simpleTree[int])(nil)
)

// priRun is a maximal run of batch values sharing one priority.
type priRun[V any] struct {
	pri  int
	vals []V
}

// groupByPri validates every priority up front (so a panic cannot leave a
// batch half-inserted) and groups the items into per-priority runs in
// ascending priority order. Values are copied; the caller's slice is not
// retained.
func groupByPri[V any](items []Item[V], npri int) []priRun[V] {
	for _, it := range items {
		checkPri(it.Pri, npri)
	}
	if len(items) == 0 {
		return nil
	}
	sorted := make([]Item[V], len(items))
	copy(sorted, items)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Pri < sorted[j].Pri })
	runs := make([]priRun[V], 0, 1)
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && sorted[j].Pri == sorted[i].Pri {
			j++
		}
		vals := make([]V, j-i)
		for k, it := range sorted[i:j] {
			vals[k] = it.Val
		}
		runs = append(runs, priRun[V]{pri: sorted[i].Pri, vals: vals})
		i = j
	}
	return runs
}
