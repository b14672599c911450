package simpq

import (
	"fmt"
	"math/rand"

	"pq/internal/sim"
)

// SkipList is the paper's bounded-range priority queue built from Pugh's
// skip list (Figure 12): one preallocated link per priority, each holding
// a bin. A link is threaded into the list only while its bin may hold
// items. Deletions go through a separate "delete bin" (following Johnson):
// the first processor to find it empty unlinks the first link of the list
// and publishes its bin, which keeps deletion contention away from the
// list structure.
//
// Link states: a link is threaded (in the list), unthreaded, or in
// transition, tracked by a small per-link state machine so concurrent
// inserts claim the (re)threading work exactly once.
type SkipList struct {
	npri     int
	maxLevel int
	headFwd  sim.Addr // maxLevel words; 0 = nil, else link index + 1
	headLock TASLock
	links    []skipLink
	bins     []*Bin
	delBin   sim.Addr // bin index + 1, or 0
	delLock  TASLock

	// trace, when non-nil, records structural transitions for debugging;
	// it costs no simulated cycles.
	trace *[]string

	// Host-side internals counters (no simulated cost).
	stats skipStats
}

// skipStats counts list-restructuring work and delete-path contention.
type skipStats struct {
	threads  int64 // links threaded into the list by inserters
	refills  int64 // delete-bin refills (unthread + publish)
	retries  int64 // DeleteMin loop restarts (bin raced empty, CAS lost...)
	refWaits int64 // deleters parked behind a concurrent refill
}

// Metrics reports restructuring counters plus the summed per-bin lock
// cycles (prefix "bin_lock") — delete-bin refill frequency is the
// mechanism metric behind this queue's delete-min latency.
func (q *SkipList) Metrics() Metrics {
	m := Metrics{
		"threads":      float64(q.stats.threads),
		"refills":      float64(q.stats.refills),
		"retries":      float64(q.stats.retries),
		"refill_waits": float64(q.stats.refWaits),
	}
	for _, b := range q.bins {
		m.addSum("bin", b.Metrics())
	}
	return m
}

type skipLink struct {
	level  int
	fwd    sim.Addr // level words
	lstate sim.Addr
	lock   TASLock
}

// Link states.
const (
	slUnthreaded = 0
	slThreading  = 1
	slThreaded   = 2
	slUnlinking  = 3
)

// NewSkipList builds the queue with npri priorities and per-bin capacity
// maxItems. Link heights are fixed at construction with Pugh's p=1/2
// distribution from a deterministic source.
func NewSkipList(m *sim.Machine, npri, maxItems int) *SkipList {
	maxLevel := 1
	for n := npri; n > 1; n /= 2 {
		maxLevel++
	}
	q := &SkipList{
		npri:     npri,
		maxLevel: maxLevel,
		headFwd:  m.Alloc(maxLevel),
		headLock: NewTASLock(m),
		links:    make([]skipLink, npri),
		bins:     make([]*Bin, npri),
		delBin:   m.Alloc(1),
		delLock:  NewTASLock(m),
	}
	rng := rand.New(rand.NewSource(0x5eed51))
	for i := range q.links {
		level := 1
		for level < maxLevel && rng.Intn(2) == 0 {
			level++
		}
		q.links[i] = skipLink{
			level:  level,
			fwd:    m.Alloc(level),
			lstate: m.Alloc(1),
			lock:   NewTASLock(m),
		}
		q.bins[i] = NewBin(m, maxItems)
	}
	m.Label(q.headFwd, maxLevel, "skiplist.head")
	m.Label(q.delBin, 1, "skiplist.delbin")
	return q
}

// NumPriorities reports the fixed priority range.
func (q *SkipList) NumPriorities() int { return q.npri }

// Insert adds val to its priority's bin and threads the link into the
// list if it is not already threaded. It returns only once the bin is
// reachable: it waits out another processor's slThreading, since until
// that processor links level 0 a delete can find the list and the delete
// bin empty and report an empty queue over a completed insert (the
// native ensureThreaded does the same). slUnlinking needs no wait: the
// unlinker holds delLock and publishes this bin as the delete bin.
func (q *SkipList) Insert(p *sim.Proc, pri int, val uint64) {
	q.bins[pri].Push(p, val)
	q.tracef(p, "binned key=%d val=%#x", pri, val)
	for {
		st := p.Read(q.links[pri].lstate)
		q.tracef(p, "lstate-read key=%d st=%d", pri, st)
		switch {
		case st == slThreading:
			p.WaitWhile(q.links[pri].lstate, slThreading)
		case st != slUnthreaded:
			return
		case p.CAS(q.links[pri].lstate, slUnthreaded, slThreading):
			q.tracef(p, "claimed key=%d", pri)
			q.thread(p, pri)
			q.stats.threads++
			p.Write(q.links[pri].lstate, slThreaded)
			q.tracef(p, "threaded key=%d", pri)
			return
		}
	}
}

// tracef appends a structural trace record when tracing is enabled.
func (q *SkipList) tracef(p *sim.Proc, format string, args ...any) {
	if q.trace == nil {
		return
	}
	*q.trace = append(*q.trace, fmt.Sprintf("t=%d p=%d ", p.Now(), p.ID())+fmt.Sprintf(format, args...))
}

// lockPred locks the predecessor of key at the given level, advancing past
// concurrently inserted links, and returns the locked predecessor
// (-1 = head) and its successor pointer value.
func (q *SkipList) lockPred(p *sim.Proc, pred int, key, lev int) (int, uint64) {
	for {
		var lockRef TASLock
		var fwdAddr sim.Addr
		if pred < 0 {
			lockRef, fwdAddr = q.headLock, q.headFwd+sim.Addr(lev)
		} else {
			lockRef, fwdAddr = q.links[pred].lock, q.links[pred].fwd+sim.Addr(lev)
		}
		lockRef.Acquire(p)
		if pred >= 0 {
			if st := p.Read(q.links[pred].lstate); st != slThreaded {
				// Predecessor is no longer (fully) in the list. If it is
				// in a transient state, park until that operation settles
				// (busy-restarting could starve it on the head lock); if
				// it was simply unthreaded, restart from the head at once
				// — nothing may ever re-thread it.
				lockRef.Release(p)
				if st == slThreading || st == slUnlinking {
					p.WaitWhile(q.links[pred].lstate, st)
				}
				pred = -1
				continue
			}
		}
		succ := p.Read(fwdAddr)
		if succ != 0 && int(succ-1) < key {
			// A smaller link slipped in: advance.
			lockRef.Release(p)
			pred = int(succ - 1)
			continue
		}
		return pred, succ
	}
}

// thread links the claimed link for key into the list bottom-up, per
// Pugh's concurrent insertion (lock the predecessor per level, validate,
// link).
func (q *SkipList) thread(p *sim.Proc, key int) {
	l := &q.links[key]
	// Search predecessors top-down (unlocked reads).
	update := make([]int, q.maxLevel)
	pred := -1
	for lev := q.maxLevel - 1; lev >= 0; lev-- {
		for {
			var succ uint64
			if pred < 0 {
				succ = p.Read(q.headFwd + sim.Addr(lev))
			} else {
				succ = p.Read(q.links[pred].fwd + sim.Addr(lev))
			}
			if succ == 0 || int(succ-1) >= key {
				break
			}
			pred = int(succ - 1)
		}
		update[lev] = pred
	}
	for lev := 0; lev < l.level; lev++ {
		lockedPred, succ := q.lockPred(p, update[lev], key, lev)
		p.Write(l.fwd+sim.Addr(lev), succ)
		if lockedPred < 0 {
			p.Write(q.headFwd+sim.Addr(lev), uint64(key)+1)
			q.headLock.Release(p)
		} else {
			p.Write(q.links[lockedPred].fwd+sim.Addr(lev), uint64(key)+1)
			q.links[lockedPred].lock.Release(p)
		}
	}
}

// unthread removes the link for key (which must be in state slUnlinking)
// from every level, top-down. The link was the minimum when claimed, but a
// smaller link may thread itself concurrently, so the predecessor at each
// level is re-found under locks rather than assumed to be the head.
func (q *SkipList) unthread(p *sim.Proc, key int) {
	l := &q.links[key]
	for lev := l.level - 1; lev >= 0; lev-- {
		pred := -1
		for {
			var lockRef TASLock
			var fwdAddr sim.Addr
			if pred < 0 {
				lockRef, fwdAddr = q.headLock, q.headFwd+sim.Addr(lev)
			} else {
				lockRef, fwdAddr = q.links[pred].lock, q.links[pred].fwd+sim.Addr(lev)
			}
			lockRef.Acquire(p)
			succ := p.Read(fwdAddr)
			if succ == uint64(key)+1 {
				// Lock the link itself (predecessor first — key order)
				// before reading its forward pointer: a threader holding
				// the link's lock may be concurrently linking a new node
				// behind it, and reading a stale pointer here would splice
				// that node out of the level.
				l.lock.Acquire(p)
				p.Write(fwdAddr, p.Read(l.fwd+sim.Addr(lev)))
				l.lock.Release(p)
				lockRef.Release(p)
				break
			}
			lockRef.Release(p)
			if succ != 0 && int(succ-1) < key {
				pred = int(succ - 1)
				continue
			}
			// key is not linked at this level (nothing to do).
			break
		}
	}
}

// DeleteMin removes an element from the delete bin, refilling it from the
// first threaded link when it runs dry.
func (q *SkipList) DeleteMin(p *sim.Proc) (uint64, bool) {
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			q.stats.retries++
		}
		db := p.Read(q.delBin)
		if db != 0 {
			if e, ok := q.bins[db-1].Pop(p); ok {
				q.tracef(p, "bin-deleted key=%d val=%#x", db-1, e)
				return e, true
			}
			q.tracef(p, "bin-empty key=%d", db-1)
		}
		if q.delLock.TryAcquire(p) {
			// Re-validate under the lock: another deleter may have already
			// repointed the delete bin, or an insert may have refilled the
			// current one. Moving the delete bin away from a non-empty bin
			// would strand its items.
			if cur := p.Read(q.delBin); cur != db || (cur != 0 && !q.bins[cur-1].Empty(p)) {
				q.delLock.Release(p)
				continue
			}
			first := p.Read(q.headFwd)
			if first == 0 {
				q.delLock.Release(p)
				// Nothing threaded and the delete bin is empty.
				return 0, false
			}
			key := int(first - 1)
			if !p.CAS(q.links[key].lstate, slThreaded, slUnlinking) {
				// Mid-thread by an inserter; park until its state settles.
				q.delLock.Release(p)
				p.WaitWhile(q.links[key].lstate, slThreading)
				continue
			}
			q.tracef(p, "unthread-start key=%d", key)
			q.unthread(p, key)
			q.stats.refills++
			p.Write(q.delBin, uint64(key)+1)
			p.Write(q.links[key].lstate, slUnthreaded)
			q.tracef(p, "unthread-done key=%d (delBin=%d)", key, key+1)
			q.delLock.Release(p)
			continue
		}
		// Someone else is refilling the delete bin; wait for it. Only the
		// lock holder may conclude the queue is empty — mid-refill the
		// list head is transiently nil while the delete bin is not yet
		// published, and that must not read as emptiness.
		q.stats.refWaits++
		p.WaitWhile(q.delLock.word, 1)
	}
}

var _ Queue = (*SkipList)(nil)
