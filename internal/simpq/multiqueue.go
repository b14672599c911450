package simpq

import (
	"pq/internal/core"
	"pq/internal/sim"
)

// MultiQueue is the relaxed queue of Williams & Sanders on the simulated
// machine: C·p sequential array heaps in shared memory, each under a
// test-and-set lock, with a per-heap top-priority cache word. Insert
// pushes to a random heap; DeleteMin reads the top words of two random
// heaps and pops the better one. Locks are only ever TryAcquired —
// contention re-rolls instead of spinning — so the queue has no
// combining structure and no convoy, at the price of bounded rank error
// on every pop.
//
// Rank accounting mirrors the queue contents host-side: the engine runs
// operations one memory request at a time under a single baton, so the
// mirror is exact, and each pop's rank error (items of strictly smaller
// priority present at pop time) costs zero simulated cycles to compute.
type MultiQueue struct {
	npri int
	nq   int
	capQ int

	locks []TASLock
	tops  sim.Addr // per-heap cached top priority; npri means empty
	sizes sim.Addr // per-heap element count
	pris  sim.Addr // nq × (capQ+1) 1-based heap arrays
	vals  sim.Addr

	// Host-side rank accounting (present counts queued items per
	// priority; rank is the native twin's RelaxStats, its Counts grown to
	// the worst rank so no pop lands in an overflow bucket) and internals
	// counters.
	present []int64
	rank    core.RelaxStats

	picks       int64 // two-choice samplings
	ties        int64 // samplings whose two tops were equal
	emptyProbes int64 // locked heaps that turned out empty (or fruitless scans)
	lockRetries int64 // TryAcquire failures
	fullScans   int64 // slow-path sweeps after two empty tops
	overflows   int64 // inserts dropped because a sub-heap was full

	batchInserts int64
	batchDeletes int64
}

// NewMultiQueue builds a MultiQueue with npri priorities and total
// capacity maxItems spread over the sub-heaps (each heap gets slack
// above the uniform share because random placement is not perfectly
// balanced; an insert into a full heap is dropped like the paper's
// bins, counted in multiqueue.overflow_drops). c is the
// over-provisioning factor: the queue keeps c × procs sub-heaps, and
// zero selects 2, the Williams & Sanders default.
func NewMultiQueue(m *sim.Machine, npri, maxItems, c int) *MultiQueue {
	if c <= 0 {
		c = 2
	}
	nq := c * m.Procs()
	if nq < 2 {
		nq = 2
	}
	capQ := maxItems
	if nq > 1 {
		capQ = 4*maxItems/nq + 64
		if capQ > maxItems {
			capQ = maxItems
		}
	}
	q := &MultiQueue{
		npri:    npri,
		nq:      nq,
		capQ:    capQ,
		locks:   make([]TASLock, nq),
		tops:    m.Alloc(nq),
		sizes:   m.Alloc(nq),
		pris:    m.Alloc(nq * (capQ + 1)),
		vals:    m.Alloc(nq * (capQ + 1)),
		present: make([]int64, npri),
		rank:    core.RelaxStats{Tracked: true},
	}
	for i := range q.locks {
		q.locks[i] = NewTASLock(m)
	}
	m.Label(q.tops, nq, "multiqueue.tops")
	m.Label(q.sizes, nq, "multiqueue.sizes")
	m.Label(q.pris, nq*(capQ+1), "multiqueue.heaps")
	m.Label(q.vals, nq*(capQ+1), "multiqueue.heaps")
	for h := 0; h < nq; h++ {
		m.SetWord(q.tops+sim.Addr(h), q.mqEmpty())
	}
	return q
}

// NumPriorities reports the fixed priority range.
func (q *MultiQueue) NumPriorities() int { return q.npri }

// mqEmpty is the top-cache sentinel for an empty heap. Heaps start
// zeroed, so the sentinel must be written on first use; topOf treats a
// zero-size heap as empty regardless of its top word.
func (q *MultiQueue) mqEmpty() uint64 { return uint64(q.npri) }

func (q *MultiQueue) heapPri(p *sim.Proc, h int, i uint64) uint64 {
	return p.Read(q.pris + sim.Addr(h*(q.capQ+1)) + sim.Addr(i))
}
func (q *MultiQueue) heapVal(p *sim.Proc, h int, i uint64) uint64 {
	return p.Read(q.vals + sim.Addr(h*(q.capQ+1)) + sim.Addr(i))
}
func (q *MultiQueue) heapSet(p *sim.Proc, h int, i, pr, v uint64) {
	p.Write(q.pris+sim.Addr(h*(q.capQ+1))+sim.Addr(i), pr)
	p.Write(q.vals+sim.Addr(h*(q.capQ+1))+sim.Addr(i), v)
}

// pushLocked inserts into heap h (lock held) and republishes its top.
func (q *MultiQueue) pushLocked(p *sim.Proc, h, pri int, val uint64) bool {
	n := p.Read(q.sizes + sim.Addr(h))
	if n >= uint64(q.capQ) {
		q.overflows++
		return false
	}
	n++
	p.Write(q.sizes+sim.Addr(h), n)
	i, pr := n, uint64(pri)
	for i > 1 {
		parent := i / 2
		ppri := q.heapPri(p, h, parent)
		if ppri <= pr {
			break
		}
		q.heapSet(p, h, i, ppri, q.heapVal(p, h, parent))
		i = parent
	}
	q.heapSet(p, h, i, pr, val)
	p.Write(q.tops+sim.Addr(h), q.heapPri(p, h, 1))
	q.present[pri]++
	return true
}

// popLocked removes heap h's root (lock held) and republishes its top.
func (q *MultiQueue) popLocked(p *sim.Proc, h int) (int, uint64, bool) {
	n := p.Read(q.sizes + sim.Addr(h))
	if n == 0 {
		p.Write(q.tops+sim.Addr(h), q.mqEmpty())
		return 0, 0, false
	}
	outPri, out := q.heapPri(p, h, 1), q.heapVal(p, h, 1)
	lastPri, lastVal := q.heapPri(p, h, n), q.heapVal(p, h, n)
	p.Write(q.sizes+sim.Addr(h), n-1)
	n--
	if n > 0 {
		i := uint64(1)
		for {
			l, r := 2*i, 2*i+1
			if l > n {
				break
			}
			child, cpri := l, q.heapPri(p, h, l)
			if r <= n {
				if rp := q.heapPri(p, h, r); rp < cpri {
					child, cpri = r, rp
				}
			}
			if cpri >= lastPri {
				break
			}
			q.heapSet(p, h, i, cpri, q.heapVal(p, h, child))
			i = child
		}
		q.heapSet(p, h, i, lastPri, lastVal)
		p.Write(q.tops+sim.Addr(h), q.heapPri(p, h, 1))
	} else {
		p.Write(q.tops+sim.Addr(h), q.mqEmpty())
	}
	q.notePop(int(outPri))
	return int(outPri), out, true
}

// notePop records one pop's exact rank error from the host-side mirror.
func (q *MultiQueue) notePop(pri int) {
	rank := int64(0)
	for i := 0; i < pri; i++ {
		rank += q.present[i]
	}
	q.present[pri]--
	st := &q.rank
	st.Pops++
	st.RankSum += rank
	st.RankMax = max(st.RankMax, rank)
	for int64(len(st.Counts)) <= rank {
		st.Counts = append(st.Counts, 0)
	}
	st.Counts[rank]++
}

// pickTwo returns two distinct random deletion candidates.
func (q *MultiQueue) pickTwo(p *sim.Proc) (int, int) {
	q.picks++
	a := p.Rand(q.nq)
	b := a
	if q.nq > 1 {
		b = (a + 1 + p.Rand(q.nq-1)) % q.nq
	}
	return a, b
}

// Insert adds val at priority pri to a random sub-heap, re-rolling on
// lock contention instead of waiting.
func (q *MultiQueue) Insert(p *sim.Proc, pri int, val uint64) {
	h := q.lockRandom(p)
	q.pushLocked(p, h, pri, val)
	q.locks[h].Release(p)
}

// lockRandom locks and returns a random sub-heap, re-rolling whenever
// TryAcquire fails.
func (q *MultiQueue) lockRandom(p *sim.Proc) int {
	for {
		h := p.Rand(q.nq)
		if q.locks[h].TryAcquire(p) {
			return h
		}
		q.lockRetries++
	}
}

// DeleteMin pops the better of two random tops. A false return means a
// full scan found every heap empty.
func (q *MultiQueue) DeleteMin(p *sim.Proc) (uint64, bool) {
	var one [1]BatchItem
	out := q.popSome(p, 1, one[:0])
	if len(out) == 0 {
		return 0, false
	}
	return out[0].Val, true
}

// popSome pops up to k items from one sub-heap chosen by the two-choice
// rule, appending to out. An unchanged length means the queue is empty
// per a clean full scan.
func (q *MultiQueue) popSome(p *sim.Proc, k int, out []BatchItem) []BatchItem {
	for {
		a, b := q.pickTwo(p)
		ta := p.Read(q.tops + sim.Addr(a))
		tb := p.Read(q.tops + sim.Addr(b))
		if ta == tb {
			q.ties++
		}
		if ta >= q.mqEmpty() && tb >= q.mqEmpty() {
			return q.popScan(p, k, out)
		}
		best := a
		if tb < ta {
			best = b
		}
		if !q.locks[best].TryAcquire(p) {
			q.lockRetries++
			continue
		}
		got := q.popRun(p, best, k, out)
		q.locks[best].Release(p)
		if len(got) > len(out) {
			return got
		}
		q.emptyProbes++
	}
}

// popRun pops up to k items from heap h (lock held), appending to out.
func (q *MultiQueue) popRun(p *sim.Proc, h, k int, out []BatchItem) []BatchItem {
	for n := 0; n < k; n++ {
		pri, val, ok := q.popLocked(p, h)
		if !ok {
			break
		}
		out = append(out, BatchItem{Pri: pri, Val: val})
	}
	return out
}

// popScan is the emptiness slow path: sweep every heap, skipping empty
// tops and retrying while any non-empty heap was lock-busy. The
// all-empty verdict is sound because an item never migrates between
// heaps and pushLocked publishes the new top before its insert
// completes.
func (q *MultiQueue) popScan(p *sim.Proc, k int, out []BatchItem) []BatchItem {
	q.fullScans++
	for {
		busy := false
		for h := 0; h < q.nq; h++ {
			if p.Read(q.tops+sim.Addr(h)) >= q.mqEmpty() {
				continue
			}
			if !q.locks[h].TryAcquire(p) {
				busy = true
				q.lockRetries++
				continue
			}
			got := q.popRun(p, h, k, out)
			q.locks[h].Release(p)
			if len(got) > len(out) {
				return got
			}
		}
		if !busy {
			q.emptyProbes++
			return out
		}
	}
}

// InsertBatch pushes the whole batch into one sub-heap under one lock
// hold — the insertion-buffering path.
func (q *MultiQueue) InsertBatch(p *sim.Proc, items []BatchItem) {
	if len(items) == 0 {
		return
	}
	q.batchInserts++
	h := q.lockRandom(p)
	for _, it := range items {
		q.pushLocked(p, h, it.Pri, it.Val)
	}
	q.locks[h].Release(p)
}

// DeleteMinBatch takes two-choice rounds until k items are out or a full
// scan proves the queue empty.
func (q *MultiQueue) DeleteMinBatch(p *sim.Proc, k int) []BatchItem {
	if k < 1 {
		return nil
	}
	q.batchDeletes++
	var out []BatchItem
	for len(out) < k {
		got := q.popSome(p, k-len(out), out)
		if len(got) == len(out) {
			break
		}
		out = got
	}
	return out
}

// Metrics reports the MultiQueue internals: the two-choice accounting
// the issue asks for (queue picks, ties, empty-probe retries) plus lock
// contention, scan and overflow counters and the exact
// rank-error distribution.
func (q *MultiQueue) Metrics() Metrics {
	return Metrics{
		"multiqueue.queues":              float64(q.nq),
		"multiqueue.queue_picks":         float64(q.picks),
		"multiqueue.ties":                float64(q.ties),
		"multiqueue.empty_probe_retries": float64(q.emptyProbes),
		"multiqueue.lock_retries":        float64(q.lockRetries),
		"multiqueue.full_scans":          float64(q.fullScans),
		"multiqueue.overflow_drops":      float64(q.overflows),
		"multiqueue.rank_pops":           float64(q.rank.Pops),
		"multiqueue.rank_max":            float64(q.rank.RankMax),
		"multiqueue.rank_mean":           q.rank.Mean(),
		"multiqueue.rank_p50":            q.rank.Quantile(0.5),
		"multiqueue.rank_p99":            q.rank.Quantile(0.99),
		"batch_inserts":                  float64(q.batchInserts),
		"batch_deletes":                  float64(q.batchDeletes),
	}
}

var (
	_ Queue         = (*MultiQueue)(nil)
	_ BatchQueue    = (*MultiQueue)(nil)
	_ MetricsSource = (*MultiQueue)(nil)
)
