package simpq

import (
	"pq/internal/core"
	"pq/internal/sim"
)

// MultiQueue is the relaxed queue of Williams & Sanders on the simulated
// machine, core.TwoChoice over mqHeaps: C·p sequential array heaps in
// shared memory, each under a test-and-set lock, with a per-heap
// top-priority cache word. Locks are only ever TryAcquired — contention
// re-rolls instead of spinning — so the queue has no combining structure
// and no convoy, at the price of bounded rank error on every pop.
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
	capQ int

	locks []TASLock
	tops  sim.Addr // per-heap cached top priority; npri means empty
	sizes sim.Addr // per-heap element count
	pris  sim.Addr // nq × (capQ+1) 1-based heap arrays
	vals  sim.Addr

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
		capQ:    capQ,
		locks:   make([]TASLock, nq),
		tops:    m.Alloc(nq),
		sizes:   m.Alloc(nq),
		pris:    m.Alloc(nq * (capQ + 1)),
		vals:    m.Alloc(nq * (capQ + 1)),
		present: make([]int64, npri),
		rank:    core.RelaxStats{Tracked: true},
	}
	for i := range s.locks {
		s.locks[i] = NewTASLock(m)
	}
	m.Label(s.tops, nq, "multiqueue.tops")
	m.Label(s.sizes, nq, "multiqueue.sizes")
	m.Label(s.pris, nq*(capQ+1), "multiqueue.heaps")
	m.Label(s.vals, nq*(capQ+1), "multiqueue.heaps")
	for h := 0; h < nq; h++ {
		m.SetWord(s.tops+sim.Addr(h), s.mqEmpty())
	}
	return &MultiQueue{core.TwoChoice[*sim.Proc, uint64]{NPri: npri, Heaps: s, Tally: new(core.Tally)}, s}
}

// mqEmpty is the top-cache sentinel for an empty heap. Heaps start
// zeroed, so the sentinel must be written on first use.
func (s *mqHeaps) mqEmpty() uint64 { return uint64(s.npri) }

func (s *mqHeaps) heapPri(p *sim.Proc, h int, i uint64) uint64 {
	return p.Read(s.pris + sim.Addr(h*(s.capQ+1)) + sim.Addr(i))
}
func (s *mqHeaps) heapVal(p *sim.Proc, h int, i uint64) uint64 {
	return p.Read(s.vals + sim.Addr(h*(s.capQ+1)) + sim.Addr(i))
}
func (s *mqHeaps) heapSet(p *sim.Proc, h int, i, pr, v uint64) {
	p.Write(s.pris+sim.Addr(h*(s.capQ+1))+sim.Addr(i), pr)
	p.Write(s.vals+sim.Addr(h*(s.capQ+1))+sim.Addr(i), v)
}

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
	n := p.Read(s.sizes + sim.Addr(h))
	if n >= uint64(s.capQ) {
		s.overflows++
		return
	}
	n++
	p.Write(s.sizes+sim.Addr(h), n)
	i, pr := n, uint64(pri)
	for i > 1 {
		parent := i / 2
		ppri := s.heapPri(p, h, parent)
		if ppri <= pr {
			break
		}
		s.heapSet(p, h, i, ppri, s.heapVal(p, h, parent))
		i = parent
	}
	s.heapSet(p, h, i, pr, val)
	p.Write(s.tops+sim.Addr(h), s.heapPri(p, h, 1))
	s.present[pri]++
}

// Pop removes heap h's root (lock held), republishes its top and
// releases the lock when last or when h is empty.
func (s *mqHeaps) Pop(p *sim.Proc, h int, last bool) (BatchItem, bool) {
	n := p.Read(s.sizes + sim.Addr(h))
	if n == 0 {
		p.Write(s.tops+sim.Addr(h), s.mqEmpty())
		s.locks[h].Release(p)
		return BatchItem{}, false
	}
	if last {
		defer s.locks[h].Release(p)
	}
	outPri, out := s.heapPri(p, h, 1), s.heapVal(p, h, 1)
	lastPri, lastVal := s.heapPri(p, h, n), s.heapVal(p, h, n)
	p.Write(s.sizes+sim.Addr(h), n-1)
	n--
	if n > 0 {
		i := uint64(1)
		for {
			l, r := 2*i, 2*i+1
			if l > n {
				break
			}
			child, cpri := l, s.heapPri(p, h, l)
			if r <= n {
				if rp := s.heapPri(p, h, r); rp < cpri {
					child, cpri = r, rp
				}
			}
			if cpri >= lastPri {
				break
			}
			s.heapSet(p, h, i, cpri, s.heapVal(p, h, child))
			i = child
		}
		s.heapSet(p, h, i, lastPri, lastVal)
		p.Write(s.tops+sim.Addr(h), s.heapPri(p, h, 1))
	} else {
		p.Write(s.tops+sim.Addr(h), s.mqEmpty())
	}
	s.notePop(int(outPri))
	return BatchItem{Pri: int(outPri), Val: out}, true
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
