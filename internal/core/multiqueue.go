package core

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
)

// TwoChoice is the MultiQueue of Williams & Sanders ("Engineering
// MultiQueues", arXiv 2107.01350), written once for both twins: c·p
// sequential heaps, each under its own lock (see HeapSet). Insert pushes
// into a random heap; DeleteMin peeks the cached top priorities of two
// random heaps and pops from the better one. No operation ever waits for
// a lock — TryLock failures re-roll — so the only global coordination is
// the cache traffic on the per-heap top words.
//
// The price is relaxation: DeleteMin may return an item while up to
// O(c·p) better ones sit in other heaps (expected rank error, with an
// exponential tail). Each twin's heaps measure that error exactly (see
// RelaxStats); internal/order's CheckRelaxed and the refpq rank oracle
// verify it externally.
//
// Emptiness is exact at quiescence: an item's heap never changes between
// insert and pop, and Push publishes the heap's new top before the lock
// is released, so the full scan in popScan — which skips only heaps whose
// top word says empty and retries while any skipped heap was lock-busy —
// cannot miss an item whose Insert completed before DeleteMin began.
type TwoChoice[C, V any] struct {
	NPri  int
	Heaps HeapSet[C, V]
	Tally *Tally // set by the simulated twin
}

// HeapSet is what the two-choice loop needs of the MultiQueue's
// sub-heaps, on either twin (C as for Bin). Heaps are numbered 0 to
// Len()-1, and each has a lock that is only ever tried.
type HeapSet[C, V any] interface {
	Len() int
	// Top reads h's cached top priority without its lock; a value at or
	// above the priority range means h looks empty.
	Top(c C, h int) int64
	// PickTwo draws two deletion candidates and reads their tops.
	PickTwo(c C) (a, b int, ta, tb int64)
	// TryLockAny draws a uniformly random heap and tries its lock.
	TryLockAny(c C) (h int, ok bool)
	TryLock(c C, h int) bool
	// Push and Pop work on h with its lock held and republish its top.
	// Each releases the lock when last is set; Pop also when it reports
	// that h is empty.
	Push(c C, h, pri int, v V, last bool)
	Pop(c C, h int, last bool) (Item[V], bool)
}

// NumPriorities reports the fixed priority range.
func (q *TwoChoice[C, V]) NumPriorities() int { return q.NPri }

// Insert pushes into a random sub-heap, re-rolling on lock contention
// instead of waiting.
func (q *TwoChoice[C, V]) Insert(c C, pri int, v V) {
	checkPri(pri, q.NPri)
	q.Heaps.Push(c, q.lockRandom(c), pri, v, true)
}

// lockRandom locks and returns a random sub-heap, re-rolling whenever
// TryLock fails.
func (q *TwoChoice[C, V]) lockRandom(c C) int {
	for {
		if h, ok := q.Heaps.TryLockAny(c); ok {
			return h
		}
	}
}

// DeleteMin pops the better of two random tops. A false return means a
// full scan found every heap empty.
func (q *TwoChoice[C, V]) DeleteMin(c C) (V, bool) {
	var one [1]Item[V]
	out := q.popSome(c, 1, one[:0])
	if len(out) == 0 {
		var zero V
		return zero, false
	}
	return out[0].Val, true
}

// popSome pops up to k items from one sub-heap chosen by the two-choice
// rule, appending to out. An unchanged length means the queue was empty
// (per a full clean scan), not merely that the candidates were.
func (q *TwoChoice[C, V]) popSome(c C, k int, out []Item[V]) []Item[V] {
	empty := int64(q.NPri)
	for {
		a, b, ta, tb := q.Heaps.PickTwo(c)
		if ta >= empty && tb >= empty {
			return q.popScan(c, k, out)
		}
		best := a
		if tb < ta {
			best = b
		}
		if !q.Heaps.TryLock(c, best) {
			continue
		}
		if got := q.popRun(c, best, k, out); len(got) > len(out) {
			return got
		}
		// The candidate drained between peek and lock; try again.
		q.Tally.add(TallyEmptyProbes, 1)
	}
}

// popRun pops up to k items from heap h, appending to out, and releases
// h's lock.
func (q *TwoChoice[C, V]) popRun(c C, h, k int, out []Item[V]) []Item[V] {
	for ; k > 0; k-- {
		it, ok := q.Heaps.Pop(c, h, k == 1)
		if !ok {
			break
		}
		out = append(out, it)
	}
	return out
}

// popScan is the slow path when both sampled tops were empty: sweep
// every sub-heap, skipping those whose top word says empty and retrying
// the sweep while any non-empty heap was lock-busy. Returning out
// unchanged means the queue is empty: every heap showed an empty top in
// one pass with no busy locks (sound — see the type comment).
func (q *TwoChoice[C, V]) popScan(c C, k int, out []Item[V]) []Item[V] {
	q.Tally.add(TallyFullScans, 1)
	empty := int64(q.NPri)
	for {
		busy := false
		for h := range q.Heaps.Len() {
			if q.Heaps.Top(c, h) >= empty {
				continue
			}
			if !q.Heaps.TryLock(c, h) {
				busy = true
				continue
			}
			if got := q.popRun(c, h, k, out); len(got) > len(out) {
				return got
			}
		}
		if !busy {
			q.Tally.add(TallyEmptyProbes, 1)
			return out
		}
	}
}

// InsertBatch pushes the whole batch, in order, into one sub-heap under
// one lock hold — the insertion-buffering path of Williams & Sanders,
// where a batch trades a transient rank-error bump for a single
// synchronization. Every priority is checked first, so a panic cannot
// leave a batch half-inserted.
func (q *TwoChoice[C, V]) InsertBatch(c C, items []Item[V]) {
	checkBatch(items, q.NPri)
	if len(items) == 0 {
		return
	}
	q.Tally.add(TallyBatchInserts, 1)
	h := q.lockRandom(c)
	for i, it := range items {
		q.Heaps.Push(c, h, it.Pri, it.Val, i == len(items)-1)
	}
}

// DeleteMinBatch takes two-choice rounds until k items are out or a full
// scan proves the queue empty. Items arrive in per-round nondecreasing
// priority, but the concatenation is only approximately sorted — the
// relaxed contract.
func (q *TwoChoice[C, V]) DeleteMinBatch(c C, k int) []Item[V] {
	if k <= 0 {
		return nil
	}
	q.Tally.add(TallyBatchDeletes, 1)
	var out []Item[V]
	for len(out) < k {
		got := q.popSome(c, k-len(out), out)
		if len(got) == len(out) {
			break
		}
		out = got
	}
	return out
}

// multiQueue is the native MultiQueue: nq = CeilPow2(C·p) binary heaps
// in Go memory, each under its own mutex (mqHeaps).
type multiQueue[V any] struct {
	c     TwoChoice[struct{}, V]
	heaps *mqHeaps[V]
}

// mqHeaps is the native MultiQueue's heap set. Its draws are two
// independent uniform picks.
type mqHeaps[V any] struct {
	mask uint64
	qs   []mqLocal[V]

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

// mqLocal is one sequential sub-heap. top caches its first priority (or
// mqEmptyTop) so DeleteMin can compare candidates without locking; it is
// updated before the mutex is released. The pad keeps hot neighbours off
// one cache line.
type mqLocal[V any] struct {
	mu  sync.Mutex
	top atomic.Int64
	h   heap[V]
	_   [64]byte
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
	nq := max(CeilPow2(c*conc), 2)
	s := &mqHeaps[V]{
		mask: uint64(nq - 1),
		qs:   make([]mqLocal[V], nq),
	}
	for i := range s.qs {
		s.qs[i].top.Store(mqEmptyTop)
		s.qs[i].h.fifo = cfg.FIFOBins
	}
	if !cfg.MultiQueueNoRank && cfg.Priorities <= mqRankBuckets {
		s.present = make([]atomic.Int64, cfg.Priorities)
		s.ranks = make([]atomic.Int64, mqRankBuckets+1)
	}
	return &multiQueue[V]{TwoChoice[struct{}, V]{NPri: cfg.Priorities, Heaps: s}, s}
}

func (q *multiQueue[V]) NumPriorities() int             { return q.c.NumPriorities() }
func (q *multiQueue[V]) Insert(pri int, v V)            { q.c.Insert(struct{}{}, pri, v) }
func (q *multiQueue[V]) DeleteMin() (V, bool)           { return q.c.DeleteMin(struct{}{}) }
func (q *multiQueue[V]) InsertBatch(items []Item[V])    { q.c.InsertBatch(struct{}{}, items) }
func (q *multiQueue[V]) DeleteMinBatch(k int) []Item[V] { return q.c.DeleteMinBatch(struct{}{}, k) }

func (s *mqHeaps[V]) Len() int                       { return len(s.qs) }
func (s *mqHeaps[V]) pick() int                      { return int(rand.Uint64() & s.mask) }
func (s *mqHeaps[V]) Top(_ struct{}, h int) int64    { return s.qs[h].top.Load() }
func (s *mqHeaps[V]) TryLock(_ struct{}, h int) bool { return s.qs[h].mu.TryLock() }

func (s *mqHeaps[V]) PickTwo(struct{}) (a, b int, ta, tb int64) {
	a, b = s.pick(), s.pick()
	return a, b, s.qs[a].top.Load(), s.qs[b].top.Load()
}

func (s *mqHeaps[V]) TryLockAny(struct{}) (int, bool) {
	h := s.pick()
	return h, s.qs[h].mu.TryLock()
}

// Push adds an entry to heap h (whose mutex is held), republishes its top
// and unlocks h when last.
func (s *mqHeaps[V]) Push(_ struct{}, h, pri int, v V, last bool) {
	l := &s.qs[h]
	l.h.push(pri, v)
	l.top.Store(int64(l.h.ents[0].pri))
	if s.present != nil {
		s.present[pri].Add(1)
	}
	if last {
		l.mu.Unlock()
	}
}

// Pop removes heap h's first entry (its mutex is held), republishes the
// top, records the pop's rank error and unlocks h when last or when h is
// empty.
func (s *mqHeaps[V]) Pop(_ struct{}, h int, last bool) (Item[V], bool) {
	l := &s.qs[h]
	it, ok := l.h.pop()
	if len(l.h.ents) == 0 {
		l.top.Store(mqEmptyTop)
	} else {
		l.top.Store(int64(l.h.ents[0].pri))
	}
	if !ok {
		l.mu.Unlock()
		return it, false
	}
	s.noteRank(it.Pri)
	if last {
		l.mu.Unlock()
	}
	return it, true
}

// noteRank records one pop's rank error: the number of strictly-better
// items present across all sub-heaps at pop time. Concurrent inserts and
// pops make individual per-priority reads transiently stale, but each
// counter is exact at quiescence, so sequential tests see exact ranks.
func (s *mqHeaps[V]) noteRank(pri int) {
	if s.present == nil {
		return
	}
	rank := int64(0)
	for p := 0; p < pri; p++ {
		if n := s.present[p].Load(); n > 0 {
			rank += n
		}
	}
	s.present[pri].Add(-1)
	s.pops.Add(1)
	s.rankSum.Add(rank)
	idx := min(rank, int64(len(s.ranks))-1)
	s.ranks[idx].Add(1)
	for {
		cur := s.rankMax.Load()
		if rank <= cur || s.rankMax.CompareAndSwap(cur, rank) {
			break
		}
	}
}

// RelaxStats reports the measured rank-error distribution (see the
// RelaxStats type). Tracked is false when accounting was disabled by
// MultiQueueNoRank or a priority range beyond mqRankBuckets.
func (q *multiQueue[V]) RelaxStats() RelaxStats {
	s := q.heaps
	st := RelaxStats{Tracked: s.present != nil}
	if !st.Tracked {
		return st
	}
	st.Pops = s.pops.Load()
	st.RankSum = s.rankSum.Load()
	st.RankMax = s.rankMax.Load()
	st.Counts = make([]int64, len(s.ranks))
	for i := range s.ranks {
		st.Counts[i] = s.ranks[i].Load()
	}
	return st
}
