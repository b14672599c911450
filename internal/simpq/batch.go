package simpq

import (
	"pq/internal/core"
	"pq/internal/sim"
)

// BatchItem is one element of a batch operation: a value and the
// priority it carries (or was delivered at). It is core's batch item, so
// both twins group batches with core.Batch.GroupByPri.
type BatchItem = core.Item[uint64]

// BatchQueue is implemented by queues with native batch fast paths: one
// synchronization episode (lock hold, funnel traversal, counter
// operation) covers the whole batch instead of one per element.
//
// InsertBatch adds every item; DeleteMinBatch removes up to k items in
// the same order k consecutive DeleteMin calls would deliver them, a
// short result meaning the queue ran (apparently) dry.
type BatchQueue interface {
	Queue
	InsertBatch(p *sim.Proc, items []BatchItem)
	DeleteMinBatch(p *sim.Proc, k int) []BatchItem
}

// InsertBatch inserts items through q's native fast path when it has
// one, or element-wise otherwise, so workloads can run any algorithm at
// any batch size.
func InsertBatch(p *sim.Proc, q Queue, items []BatchItem) {
	if bq, ok := q.(BatchQueue); ok {
		bq.InsertBatch(p, items)
		return
	}
	for _, it := range items {
		q.Insert(p, it.Pri, it.Val)
	}
}

// DeleteMinBatch removes up to k items through q's native fast path
// when it has one, or element-wise otherwise. Fallback items carry
// Pri -1: the single-element interface does not report priorities.
func DeleteMinBatch(p *sim.Proc, q Queue, k int) []BatchItem {
	if bq, ok := q.(BatchQueue); ok {
		return bq.DeleteMinBatch(p, k)
	}
	var out []BatchItem
	for i := 0; i < k; i++ {
		v, ok := q.DeleteMin(p)
		if !ok {
			break
		}
		out = append(out, BatchItem{Pri: -1, Val: v})
	}
	return out
}
