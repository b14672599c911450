package core

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
)

// multiQueue is the relaxed priority queue of Williams & Sanders
// ("Engineering MultiQueues", arXiv 2107.01350): nq = ceilPow2(C·p)
// sequential binary heaps, each under its own mutex. Insert pushes into
// a random heap; DeleteMin peeks the cached top priorities of two random
// heaps and pops from the better one. No operation ever waits for a
// lock — TryLock failures re-roll — so the only global coordination is
// the cache traffic on the per-heap top words.
//
// The price is relaxation: DeleteMin may return an item while up to
// O(C·p) better ones sit in other heaps (expected rank error, with an
// exponential tail). The queue measures that error exactly when the
// priority range is small enough (see RelaxStats); internal/order's
// CheckRelaxed and the refpq rank oracle verify it externally.
//
// Emptiness is exact at quiescence: an item's heap never changes between
// insert and pop, and Insert publishes the heap's new top before
// returning, so the full scan in popScan — which skips only heaps whose
// top word says empty and retries while any skipped heap was lock-busy —
// cannot miss an item whose Insert completed before DeleteMin began.
type multiQueue[V any] struct {
	npri int
	fifo bool
	mask uint64
	qs   []mqLocal[V]
	seq  atomic.Uint64 // global tie-break sequence for FIFO/LIFO bins

	// Rank-error accounting (nil present disables it): present counts
	// queued items per priority, so a pop's rank error is the number of
	// strictly-better items present. ranks is an exact rank histogram;
	// its last entry aggregates the tail.
	present []atomic.Int64
	pops    atomic.Int64
	rankSum atomic.Int64
	rankMax atomic.Int64
	ranks   []atomic.Int64
}

// mqRankBuckets bounds both the exact rank histogram and the priority
// range we are willing to prefix-sum on every pop.
const mqRankBuckets = 4096

// mqEmptyTop is the top-priority cache value of an empty sub-heap. It
// compares greater than any real priority.
const mqEmptyTop = int64(1) << 62

// mqLocal is one sequential sub-heap. top caches h[0].pri (or
// mqEmptyTop) so DeleteMin can compare candidates without locking; it is
// updated before the mutex is released. The pad keeps hot neighbours off
// one cache line.
type mqLocal[V any] struct {
	mu  sync.Mutex
	top atomic.Int64
	h   []mqEnt[V]
	_   [64]byte
}

type mqEnt[V any] struct {
	pri int
	seq uint64
	val V
}

// NewMultiQueue builds a MultiQueue from cfg (see the MultiQueue* Config
// fields). The zero knobs give the Williams & Sanders baseline: C=2.
func NewMultiQueue[V any](cfg Config) Queue[V] {
	conc := cfg.Concurrency
	if conc <= 0 {
		conc = runtime.GOMAXPROCS(0)
	}
	c := cfg.MultiQueueC
	if c <= 0 {
		c = 2
	}
	nq := ceilPow2(c * conc)
	if nq < 2 {
		nq = 2
	}
	q := &multiQueue[V]{
		npri: cfg.Priorities,
		fifo: cfg.FIFOBins,
		mask: uint64(nq - 1),
		qs:   make([]mqLocal[V], nq),
	}
	for i := range q.qs {
		q.qs[i].top.Store(mqEmptyTop)
	}
	if !cfg.MultiQueueNoRank && cfg.Priorities <= mqRankBuckets {
		q.present = make([]atomic.Int64, cfg.Priorities)
		q.ranks = make([]atomic.Int64, mqRankBuckets+1)
	}
	return q
}

func (q *multiQueue[V]) NumPriorities() int { return q.npri }

// less orders heap entries: by priority, then by the global insertion
// sequence (FIFO under FIFOBins, otherwise LIFO like the paper's bins).
func (q *multiQueue[V]) less(a, b mqEnt[V]) bool {
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	if q.fifo {
		return a.seq < b.seq
	}
	return a.seq > b.seq
}

// pushLocked adds an entry to l (whose mutex is held) and republishes
// its top.
func (q *multiQueue[V]) pushLocked(l *mqLocal[V], pri int, v V) {
	l.h = append(l.h, mqEnt[V]{pri: pri, seq: q.seq.Add(1), val: v})
	for i := len(l.h) - 1; i > 0; {
		p := (i - 1) / 2
		if !q.less(l.h[i], l.h[p]) {
			break
		}
		l.h[i], l.h[p] = l.h[p], l.h[i]
		i = p
	}
	l.top.Store(int64(l.h[0].pri))
	if q.present != nil {
		q.present[pri].Add(1)
	}
}

// popLocked removes up to k entries from l (whose mutex is held),
// recording each pop's rank error.
func (q *multiQueue[V]) popLocked(l *mqLocal[V], k int, out []Item[V]) []Item[V] {
	for len(l.h) > 0 && k > 0 {
		ent := l.h[0]
		last := len(l.h) - 1
		l.h[0] = l.h[last]
		var zero mqEnt[V]
		l.h[last] = zero
		l.h = l.h[:last]
		for i := 0; ; {
			c := 2*i + 1
			if c >= len(l.h) {
				break
			}
			if c+1 < len(l.h) && q.less(l.h[c+1], l.h[c]) {
				c++
			}
			if !q.less(l.h[c], l.h[i]) {
				break
			}
			l.h[i], l.h[c] = l.h[c], l.h[i]
			i = c
		}
		q.noteRank(ent.pri)
		out = append(out, Item[V]{Pri: ent.pri, Val: ent.val})
		k--
	}
	if len(l.h) == 0 {
		l.top.Store(mqEmptyTop)
	} else {
		l.top.Store(int64(l.h[0].pri))
	}
	return out
}

// noteRank records one pop's rank error: the number of strictly-better
// items present across all sub-heaps at pop time. Concurrent inserts and
// pops make individual per-priority reads transiently stale, but each
// counter is exact at quiescence, so sequential tests see exact ranks.
func (q *multiQueue[V]) noteRank(pri int) {
	if q.present == nil {
		return
	}
	rank := int64(0)
	for p := 0; p < pri; p++ {
		if n := q.present[p].Load(); n > 0 {
			rank += n
		}
	}
	q.present[pri].Add(-1)
	q.pops.Add(1)
	q.rankSum.Add(rank)
	idx := rank
	if idx >= int64(len(q.ranks)) {
		idx = int64(len(q.ranks)) - 1
	}
	q.ranks[idx].Add(1)
	for {
		cur := q.rankMax.Load()
		if rank <= cur || q.rankMax.CompareAndSwap(cur, rank) {
			break
		}
	}
}

// pick returns a uniformly random sub-heap index.
func (q *multiQueue[V]) pick() uint64 { return rand.Uint64() & q.mask }

// Insert pushes into a random sub-heap, re-rolling on lock contention
// instead of waiting.
func (q *multiQueue[V]) Insert(pri int, v V) {
	checkPri(pri, q.npri)
	l := q.lockRandom()
	q.pushLocked(l, pri, v)
	l.mu.Unlock()
}

// lockRandom locks and returns a random sub-heap, re-rolling whenever
// TryLock fails.
func (q *multiQueue[V]) lockRandom() *mqLocal[V] {
	for {
		l := &q.qs[q.pick()]
		if l.mu.TryLock() {
			return l
		}
	}
}

func (q *multiQueue[V]) DeleteMin() (V, bool) {
	var one [1]Item[V]
	out := q.popSome(1, one[:0])
	if len(out) == 0 {
		var zero V
		return zero, false
	}
	return out[0].Val, true
}

// popSome pops up to k items from one sub-heap chosen by the two-choice
// rule, appending to out. An unchanged length means the queue was empty
// (per a full clean scan), not merely that the candidates were.
func (q *multiQueue[V]) popSome(k int, out []Item[V]) []Item[V] {
	for {
		la, lb := &q.qs[q.pick()], &q.qs[q.pick()]
		ta, tb := la.top.Load(), lb.top.Load()
		if ta == mqEmptyTop && tb == mqEmptyTop {
			return q.popScan(k, out)
		}
		best := la
		if tb < ta {
			best = lb
		}
		if !best.mu.TryLock() {
			continue
		}
		got := q.popLocked(best, k, out)
		best.mu.Unlock()
		if len(got) > len(out) {
			return got
		}
		// The candidate drained between peek and lock; try again.
	}
}

// popScan is the slow path when both sampled tops were empty: sweep
// every sub-heap, skipping those whose top word says empty and retrying
// the sweep while any non-empty heap was lock-busy. Returning out
// unchanged means the queue is empty: every heap showed an empty top in
// one pass with no busy locks (sound — see the type comment).
func (q *multiQueue[V]) popScan(k int, out []Item[V]) []Item[V] {
	for {
		busy := false
		for i := range q.qs {
			l := &q.qs[i]
			if l.top.Load() == mqEmptyTop {
				continue
			}
			if !l.mu.TryLock() {
				busy = true
				continue
			}
			got := q.popLocked(l, k, out)
			l.mu.Unlock()
			if len(got) > len(out) {
				return got
			}
		}
		if !busy {
			return out
		}
	}
}

// InsertBatch pushes the whole batch, in order, into one sub-heap under
// one lock hold — the insertion-buffering path of Williams & Sanders,
// where a batch trades a transient rank-error bump for a single
// synchronization. Every priority is checked first, so a panic cannot
// leave a batch half-inserted.
func (q *multiQueue[V]) InsertBatch(items []Item[V]) {
	checkBatch(items, q.npri)
	if len(items) == 0 {
		return
	}
	l := q.lockRandom()
	for _, it := range items {
		q.pushLocked(l, it.Pri, it.Val)
	}
	l.mu.Unlock()
}

// DeleteMinBatch takes two-choice rounds until k items are out or a full
// scan proves the queue empty. Items arrive in per-round nondecreasing
// priority, but the concatenation is only approximately sorted — the
// relaxed contract.
func (q *multiQueue[V]) DeleteMinBatch(k int) []Item[V] {
	if k <= 0 {
		return nil
	}
	var out []Item[V]
	for len(out) < k {
		got := q.popSome(k-len(out), out)
		if len(got) == len(out) {
			break
		}
		out = got
	}
	return out
}

// RelaxStats reports the measured rank-error distribution (see the
// RelaxStats type). Tracked is false when accounting was disabled by
// MultiQueueNoRank or a priority range beyond mqRankBuckets.
func (q *multiQueue[V]) RelaxStats() RelaxStats {
	st := RelaxStats{Tracked: q.present != nil}
	if !st.Tracked {
		return st
	}
	st.Pops = q.pops.Load()
	st.RankSum = q.rankSum.Load()
	st.RankMax = q.rankMax.Load()
	st.Counts = make([]int64, len(q.ranks))
	for i := range q.ranks {
		st.Counts[i] = q.ranks[i].Load()
	}
	return st
}
