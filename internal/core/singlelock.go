package core

import "pq/internal/mcs"

// singleLock is the baseline: a sequential binary heap under one MCS
// lock. Linearizable, supports the full priority range, and every
// operation serializes.
type singleLock[V any] struct {
	npri int
	lock mcs.Lock
	pris []int
	vals []V
}

// NewSingleLock builds the single-lock heap queue.
func NewSingleLock[V any](cfg Config) Queue[V] {
	return &singleLock[V]{npri: cfg.Priorities}
}

func (q *singleLock[V]) NumPriorities() int { return q.npri }

func (q *singleLock[V]) Insert(pri int, v V) {
	checkPri(pri, q.npri)
	n := q.lock.Acquire()
	q.insertLocked(pri, v)
	q.lock.Release(n)
}

// insertLocked sifts v into the heap; the lock must be held.
func (q *singleLock[V]) insertLocked(pri int, v V) {
	q.pris = append(q.pris, pri)
	q.vals = append(q.vals, v)
	i := len(q.pris) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if q.pris[parent] <= pri {
			break
		}
		q.pris[i], q.vals[i] = q.pris[parent], q.vals[parent]
		i = parent
	}
	q.pris[i], q.vals[i] = pri, v
}

func (q *singleLock[V]) DeleteMin() (V, bool) {
	n := q.lock.Acquire()
	_, v, ok := q.deleteMinLocked()
	q.lock.Release(n)
	return v, ok
}

// deleteMinLocked pops the heap minimum; the lock must be held.
func (q *singleLock[V]) deleteMinLocked() (int, V, bool) {
	var zero V
	if len(q.pris) == 0 {
		return 0, zero, false
	}
	outPri, out := q.pris[0], q.vals[0]
	last := len(q.pris) - 1
	lp, lv := q.pris[last], q.vals[last]
	q.vals[last] = zero
	q.pris, q.vals = q.pris[:last], q.vals[:last]
	if last > 0 {
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			if l >= last {
				break
			}
			c, cp := l, q.pris[l]
			if r < last && q.pris[r] < cp {
				c, cp = r, q.pris[r]
			}
			if cp >= lp {
				break
			}
			q.pris[i], q.vals[i] = cp, q.vals[c]
			i = c
		}
		q.pris[i], q.vals[i] = lp, lv
	}
	return outPri, out, true
}

// InsertBatch inserts the whole batch under one lock acquisition.
func (q *singleLock[V]) InsertBatch(items []Item[V]) {
	checkBatch(items, q.npri)
	if len(items) == 0 {
		return
	}
	n := q.lock.Acquire()
	for _, it := range items {
		q.insertLocked(it.Pri, it.Val)
	}
	q.lock.Release(n)
}

// DeleteMinBatch pops up to k minima under one lock acquisition.
func (q *singleLock[V]) DeleteMinBatch(k int) []Item[V] {
	if k <= 0 {
		return nil
	}
	out := make([]Item[V], 0, k)
	n := q.lock.Acquire()
	for len(out) < k {
		pri, v, ok := q.deleteMinLocked()
		if !ok {
			break
		}
		out = append(out, Item[V]{Pri: pri, Val: v})
	}
	q.lock.Release(n)
	return out
}
