package core

import "sync"

// singleLock is the baseline: one sequential heap under one mutex.
// Linearizable, supports the full priority range, and every operation
// serializes.
type singleLock[V any] struct {
	npri int
	mu   sync.Mutex
	h    heap[V]
}

// NewSingleLock builds the single-lock heap queue.
func NewSingleLock[V any](cfg Config) Queue[V] {
	return &singleLock[V]{npri: cfg.Priorities, h: heap[V]{fifo: cfg.FIFOBins}}
}

func (q *singleLock[V]) NumPriorities() int { return q.npri }

func (q *singleLock[V]) Insert(pri int, v V) {
	checkPri(pri, q.npri)
	q.mu.Lock()
	q.h.push(pri, v)
	q.mu.Unlock()
}

func (q *singleLock[V]) DeleteMin() (V, bool) {
	q.mu.Lock()
	it, ok := q.h.pop()
	q.mu.Unlock()
	return it.Val, ok
}

// InsertBatch inserts the whole batch under one lock acquisition.
func (q *singleLock[V]) InsertBatch(items []Item[V]) {
	checkBatch(items, q.npri)
	if len(items) == 0 {
		return
	}
	q.mu.Lock()
	for _, it := range items {
		q.h.push(it.Pri, it.Val)
	}
	q.mu.Unlock()
}

// DeleteMinBatch pops up to k minima under one lock acquisition.
func (q *singleLock[V]) DeleteMinBatch(k int) []Item[V] {
	if k <= 0 {
		return nil
	}
	out := make([]Item[V], 0, k)
	q.mu.Lock()
	for len(out) < k {
		it, ok := q.h.pop()
		if !ok {
			break
		}
		out = append(out, it)
	}
	q.mu.Unlock()
	return out
}
