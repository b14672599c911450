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

// DeleteMinBatch is AppendDeleteMinBatch to a new slice with room for k.
func (q *singleLock[V]) DeleteMinBatch(k int) []Item[V] {
	return q.AppendDeleteMinBatch(make([]Item[V], 0, max(k, 0)), k)
}

// AppendDeleteMinBatch pops up to k minima under one lock acquisition
// and appends them to dst.
func (q *singleLock[V]) AppendDeleteMinBatch(dst []Item[V], k int) []Item[V] {
	q.mu.Lock()
	for ; k > 0; k-- {
		it, ok := q.h.pop()
		if !ok {
			break
		}
		dst = append(dst, it)
	}
	q.mu.Unlock()
	return dst
}
