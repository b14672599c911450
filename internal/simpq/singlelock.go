package simpq

import "pq/internal/sim"

// SingleLock is the baseline of Figure 11 (left): a sequential array heap
// protected in its entirety by one MCS lock. It supports arbitrary
// priorities and is linearizable.
type SingleLock struct {
	npri int
	lock *MCSLock
	heap heap

	// Host-side internals counters (no simulated cost).
	batchInserts int64 // InsertBatch calls
	batchDeletes int64 // DeleteMinBatch calls
}

// NewSingleLock builds the heap with room for maxItems elements.
func NewSingleLock(m *sim.Machine, npri, maxItems int) *SingleLock {
	q := &SingleLock{npri: npri, lock: NewMCSLock(m)}
	q.heap = heap{size: m.Alloc(1), pris: m.Alloc(maxItems + 1), vals: m.Alloc(maxItems + 1), cap: maxItems}
	m.Label(q.heap.size, 1, "singlelock.size")
	m.Label(q.heap.pris, maxItems+1, "singlelock.heap")
	m.Label(q.heap.vals, maxItems+1, "singlelock.heap")
	return q
}

// NumPriorities reports the fixed priority range.
func (q *SingleLock) NumPriorities() int { return q.npri }

// Metrics reports the global lock's acquire/wait/hold counters — the
// convoy behind this baseline's flat-at-best scaling curve.
func (q *SingleLock) Metrics() Metrics {
	m := Metrics{
		"batch_inserts": float64(q.batchInserts),
		"batch_deletes": float64(q.batchDeletes),
	}
	m.add("lock", q.lock.Metrics())
	return m
}

// Insert adds val at priority pri under the global lock, sifting it up
// with the standard heap algorithm.
func (q *SingleLock) Insert(p *sim.Proc, pri int, val uint64) {
	q.lock.Acquire(p)
	q.heap.push(p, pri, val)
	q.lock.Release(p)
}

// DeleteMin removes the root under the global lock and restores the heap
// by sifting the last element down.
func (q *SingleLock) DeleteMin(p *sim.Proc) (uint64, bool) {
	q.lock.Acquire(p)
	it, _, ok := q.heap.pop(p)
	q.lock.Release(p)
	return it.Val, ok
}

// InsertBatch adds every item under a single lock hold — the whole
// batch pays one MCS handoff instead of one per element.
func (q *SingleLock) InsertBatch(p *sim.Proc, items []BatchItem) {
	if len(items) == 0 {
		return
	}
	q.batchInserts++
	q.lock.Acquire(p)
	for _, it := range items {
		q.heap.push(p, it.Pri, it.Val)
	}
	q.lock.Release(p)
}

// DeleteMinBatch removes up to k items under a single lock hold.
func (q *SingleLock) DeleteMinBatch(p *sim.Proc, k int) []BatchItem {
	if k < 1 {
		return nil
	}
	q.batchDeletes++
	var out []BatchItem
	q.lock.Acquire(p)
	for len(out) < k {
		it, _, ok := q.heap.pop(p)
		if !ok {
			break
		}
		out = append(out, it)
	}
	q.lock.Release(p)
	return out
}

var (
	_ Queue      = (*SingleLock)(nil)
	_ BatchQueue = (*SingleLock)(nil)
)
