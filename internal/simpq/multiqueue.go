package simpq

import (
	"pq/internal/core"
	"pq/internal/sim"
)

// MultiQueue is the relaxed queue of Williams & Sanders on the simulated
// machine, core.TwoChoice over mqHeaps: C·p sequential array heaps (each
// the heap SingleLock uses) in shared memory, each under a test-and-set
// lock, with a per-heap top-priority cache word. Locks are only ever
// TryAcquired — contention re-rolls instead of spinning — so the queue
// has no combining structure and no convoy, at the price of bounded rank
// error on every pop.
type MultiQueue struct {
	core.TwoChoice[*sim.Proc, uint64]
	heaps *mqHeaps
}

// mqHeaps is the simulated MultiQueue's heap set. Its two deletion
// candidates are distinct, both drawn through p.Rand.
//
// Rank accounting mirrors the queue contents host-side: the engine runs
// operations one memory request at a time under a single baton, so the
// mirror is exact, and each pop's rank error (items of strictly smaller
// priority present at pop time) costs zero simulated cycles to compute.
type mqHeaps struct {
	npri int
	nq   int

	locks []TASLock
	tops  sim.Addr // per-heap cached top priority; npri means empty
	heaps []heap   // over one size array and nq × (capQ+1) priority and value arrays

	// Host-side rank accounting: present counts queued items per
	// priority; rank is the native twin's RelaxStats, its Counts grown to
	// the worst rank so no pop lands in an overflow bucket.
	present []int64
	rank    core.RelaxStats

	picks       int64 // two-choice draws
	ties        int64 // draws whose two tops were equal
	lockRetries int64 // TryAcquire failures
	overflows   int64 // inserts dropped because a sub-heap was full
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
	nq := max(c*m.Procs(), 2)
	capQ := min(4*maxItems/nq+64, maxItems)
	s := &mqHeaps{
		npri:    npri,
		nq:      nq,
		locks:   make([]TASLock, nq),
		tops:    m.Alloc(nq),
		heaps:   make([]heap, nq),
		present: make([]int64, npri),
		rank:    core.RelaxStats{Tracked: true},
	}
	sizes, pris, vals := m.Alloc(nq), m.Alloc(nq*(capQ+1)), m.Alloc(nq*(capQ+1))
	for i := range s.locks {
		s.locks[i] = NewTASLock(m)
	}
	m.Label(s.tops, nq, "multiqueue.tops")
	m.Label(sizes, nq, "multiqueue.sizes")
	m.Label(pris, nq*(capQ+1), "multiqueue.heaps")
	m.Label(vals, nq*(capQ+1), "multiqueue.heaps")
	for h := range s.heaps {
		m.SetWord(s.tops+sim.Addr(h), s.mqEmpty())
		off := sim.Addr(h * (capQ + 1))
		s.heaps[h] = heap{size: sizes + sim.Addr(h), pris: pris + off, vals: vals + off, cap: capQ}
	}
	return &MultiQueue{core.TwoChoice[*sim.Proc, uint64]{NPri: npri, Heaps: s, Tally: new(core.Tally)}, s}
}

// mqEmpty is the top-cache sentinel for an empty heap. Heaps start
// zeroed, so the sentinel must be written on first use.
func (s *mqHeaps) mqEmpty() uint64 { return uint64(s.npri) }

func (s *mqHeaps) Len() int                     { return s.nq }
func (s *mqHeaps) Top(p *sim.Proc, h int) int64 { return int64(p.Read(s.tops + sim.Addr(h))) }

func (s *mqHeaps) TryLock(p *sim.Proc, h int) bool {
	if s.locks[h].TryAcquire(p) {
		return true
	}
	s.lockRetries++
	return false
}

// PickTwo draws two distinct random deletion candidates and reads their
// tops.
func (s *mqHeaps) PickTwo(p *sim.Proc) (a, b int, ta, tb int64) {
	a = p.Rand(s.nq)
	b = (a + 1 + p.Rand(s.nq-1)) % s.nq
	ta, tb = s.Top(p, a), s.Top(p, b)
	s.picks++
	if ta == tb {
		s.ties++
	}
	return a, b, ta, tb
}

func (s *mqHeaps) TryLockAny(p *sim.Proc) (int, bool) {
	h := p.Rand(s.nq)
	return h, s.TryLock(p, h)
}

// Push inserts into heap h (lock held), republishes its top and releases
// the lock when last; an insert into a full heap is dropped and counted.
func (s *mqHeaps) Push(p *sim.Proc, h, pri int, val uint64, last bool) {
	if last {
		defer s.locks[h].Release(p)
	}
	if !s.heaps[h].push(p, pri, val) {
		s.overflows++
		return
	}
	p.Write(s.tops+sim.Addr(h), s.heaps[h].pri(p, 1))
	s.present[pri]++
}

// Pop removes heap h's root (lock held), republishes its top and
// releases the lock when last or when h is empty.
func (s *mqHeaps) Pop(p *sim.Proc, h int, last bool) (BatchItem, bool) {
	it, left, ok := s.heaps[h].pop(p)
	if !ok {
		p.Write(s.tops+sim.Addr(h), s.mqEmpty())
		s.locks[h].Release(p)
		return it, false
	}
	if last {
		defer s.locks[h].Release(p)
	}
	top := s.mqEmpty()
	if left > 0 {
		top = s.heaps[h].pri(p, 1)
	}
	p.Write(s.tops+sim.Addr(h), top)
	s.notePop(it.Pri)
	return it, true
}

// notePop records one pop's exact rank error from the host-side mirror.
func (s *mqHeaps) notePop(pri int) {
	rank := int64(0)
	for i := 0; i < pri; i++ {
		rank += s.present[i]
	}
	s.present[pri]--
	st := &s.rank
	st.Pops++
	st.RankSum += rank
	st.RankMax = max(st.RankMax, rank)
	for int64(len(st.Counts)) <= rank {
		st.Counts = append(st.Counts, 0)
	}
	st.Counts[rank]++
}

// Metrics reports the MultiQueue internals: the two-choice accounting
// (queue picks, ties, empty-probe retries) plus lock contention, scan and
// overflow counters and the exact rank-error distribution.
func (q *MultiQueue) Metrics() Metrics {
	t, s := q.Tally, q.heaps
	return Metrics{
		"multiqueue.queues":              float64(s.nq),
		"multiqueue.queue_picks":         float64(s.picks),
		"multiqueue.ties":                float64(s.ties),
		"multiqueue.empty_probe_retries": float64(t[core.TallyEmptyProbes]),
		"multiqueue.lock_retries":        float64(s.lockRetries),
		"multiqueue.full_scans":          float64(t[core.TallyFullScans]),
		"multiqueue.overflow_drops":      float64(s.overflows),
		"multiqueue.rank_pops":           float64(s.rank.Pops),
		"multiqueue.rank_max":            float64(s.rank.RankMax),
		"multiqueue.rank_mean":           s.rank.Mean(),
		"multiqueue.rank_p50":            s.rank.Quantile(0.5),
		"multiqueue.rank_p99":            s.rank.Quantile(0.99),
		"batch_inserts":                  float64(t[core.TallyBatchInserts]),
		"batch_deletes":                  float64(t[core.TallyBatchDeletes]),
	}
}

var (
	_ Queue         = (*MultiQueue)(nil)
	_ BatchQueue    = (*MultiQueue)(nil)
	_ MetricsSource = (*MultiQueue)(nil)
)
