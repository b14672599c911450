package simpq

import (
	"math/bits"

	"pq/internal/core"
	"pq/internal/sim"
)

// Hunt is the concurrent heap of Hunt, Michael, Parthasarathy and Scott
// (IPL 1996): a single lock protects only the heap size; each node has its
// own lock and a tag (EMPTY, AVAILABLE, or the inserting processor's id).
// Insertions traverse bottom-up and are scattered across the last level by
// a bit-reversal scheme so consecutive insertions do not collide;
// deletions proceed top-down.
//
// One simplification relative to the original: when a deletion relocates
// an in-flight (pid-tagged) item, it adopts the item by marking it
// AVAILABLE, and a sift-down that meets an in-flight child stops and
// leaves the local reordering to that inserter's bubble-up. This keeps the
// multiset exact and the structure of lock traffic identical; under heavy
// races it can linger briefly with a local order violation the bubbling
// inserter then repairs.
type Hunt struct {
	npri  int
	lock  *MCSLock // protects size only
	size  sim.Addr
	nodes sim.Addr // 1-based, 3 words per node: tag, pri, val
	locks []TASLock
	cap   int
	slots int

	// Host-side internals counters (no simulated cost).
	stats huntStats
}

// huntStats counts heap-restructuring work.
type huntStats struct {
	bubbleSteps int64 // node swaps during bottom-up insertion bubbling
	siftSteps   int64 // node swaps during top-down deletion sifting
	adoptions   int64 // in-flight items relocated and adopted by a deleter
	parentWaits int64 // bubbles parked behind another in-flight insertion
}

// Metrics reports heap-restructuring counters plus the size lock's
// acquire/wait/hold cycles (prefix "size_lock") — the serialization
// point the paper blames for this algorithm's scaling ceiling.
func (q *Hunt) Metrics() Metrics {
	m := Metrics{
		"bubble_steps": float64(q.stats.bubbleSteps),
		"sift_steps":   float64(q.stats.siftSteps),
		"adoptions":    float64(q.stats.adoptions),
		"parent_waits": float64(q.stats.parentWaits),
	}
	m.add("size_lock", q.lock.Metrics())
	return m
}

// Node tags. Values >= huntTagPid are processor ids + huntTagPid.
const (
	huntEmpty  = 0
	huntAvail  = 1
	huntTagPid = 2
)

const huntNodeWords = 3

// NewHunt builds the heap with room for maxItems elements. Node storage
// is rounded up to whole levels because bit-reversed slots can land
// anywhere within the last level.
func NewHunt(m *sim.Machine, npri, maxItems int) *Hunt {
	slots := core.CeilPow2(maxItems + 1)
	q := &Hunt{
		npri:  npri,
		lock:  NewMCSLock(m),
		size:  m.Alloc(1),
		nodes: m.Alloc(slots * huntNodeWords),
		locks: make([]TASLock, slots),
		cap:   maxItems,
		slots: slots,
	}
	for i := range q.locks {
		q.locks[i] = NewTASLock(m)
	}
	m.Label(q.size, 1, "hunt.size")
	m.Label(q.nodes, slots*huntNodeWords, "hunt.nodes")
	return q
}

// NumPriorities reports the fixed priority range.
func (q *Hunt) NumPriorities() int { return q.npri }

func (q *Hunt) tagAddr(i uint64) sim.Addr { return q.nodes + sim.Addr(i*huntNodeWords) }
func (q *Hunt) priAddr(i uint64) sim.Addr { return q.nodes + sim.Addr(i*huntNodeWords+1) }
func (q *Hunt) valAddr(i uint64) sim.Addr { return q.nodes + sim.Addr(i*huntNodeWords+2) }

// bitRevPos maps insertion count k (1-based) to its heap slot: within heap
// level L = floor(log2 k), the offset bits are reversed, so consecutive
// insertions land in different subtrees (Hunt et al.'s bit-reversal).
func bitRevPos(k uint64) uint64 {
	l := uint(bits.Len64(k)) - 1 // level
	offset := k - 1<<l
	return 1<<l + bits.Reverse64(offset)>>(64-l)
}

// Insert adds val at priority pri: a brief size-lock critical section to
// claim a slot, then a bottom-up bubble with per-node locks.
func (q *Hunt) Insert(p *sim.Proc, pri int, val uint64) {
	mypid := uint64(p.ID()) + huntTagPid

	q.lock.Acquire(p)
	n := p.Read(q.size) + 1
	if n > uint64(q.cap) {
		q.lock.Release(p) // full: drop, mirroring the paper's bins
		return
	}
	p.Write(q.size, n)
	i := bitRevPos(n)
	q.locks[i].Acquire(p)
	q.lock.Release(p)

	tag := mypid
	if i == 1 {
		tag = huntAvail // nothing to bubble
	}
	p.Write(q.priAddr(i), uint64(pri))
	p.Write(q.valAddr(i), val)
	p.Write(q.tagAddr(i), tag)
	q.locks[i].Release(p)

	// Bubble up while the item is still ours.
	for i > 1 {
		parent := i / 2
		q.locks[parent].Acquire(p)
		q.locks[i].Acquire(p)
		it := p.Read(q.tagAddr(i))
		if it != mypid {
			q.stats.adoptions++
			// A deletion relocated and adopted our item; it is placed.
			q.locks[i].Release(p)
			q.locks[parent].Release(p)
			return
		}
		pt := p.Read(q.tagAddr(parent))
		switch {
		case pt == huntAvail:
			ppri := p.Read(q.priAddr(parent))
			ipri := p.Read(q.priAddr(i))
			if ipri < ppri {
				q.stats.bubbleSteps++
				q.swapNodes(p, i, parent)
				q.locks[i].Release(p)
				q.locks[parent].Release(p)
				i = parent
			} else {
				p.Write(q.tagAddr(i), huntAvail)
				q.locks[i].Release(p)
				q.locks[parent].Release(p)
				return
			}
		case pt == huntEmpty:
			// Defensive: the heap shrank past our parent; our slot is
			// settled where it is.
			p.Write(q.tagAddr(i), huntAvail)
			q.locks[i].Release(p)
			q.locks[parent].Release(p)
			return
		default:
			// Parent is mid-insertion by someone else: release both locks
			// and spin on the parent's tag (locally cached) until that
			// insertion moves on, then retry. Polling with repeated
			// acquire/release pairs instead can starve the very inserter
			// being waited for.
			q.locks[i].Release(p)
			q.locks[parent].Release(p)
			q.stats.parentWaits++
			p.WaitWhile(q.tagAddr(parent), pt)
		}
	}
	if i == 1 {
		q.locks[1].Acquire(p)
		if p.Read(q.tagAddr(1)) == mypid {
			p.Write(q.tagAddr(1), huntAvail)
		}
		q.locks[1].Release(p)
	}
}

// swapNodes exchanges the full contents (tag, priority, value) of two
// locked nodes.
func (q *Hunt) swapNodes(p *sim.Proc, a, b uint64) {
	at, ap, av := p.Read(q.tagAddr(a)), p.Read(q.priAddr(a)), p.Read(q.valAddr(a))
	bt, bp, bv := p.Read(q.tagAddr(b)), p.Read(q.priAddr(b)), p.Read(q.valAddr(b))
	p.Write(q.tagAddr(a), bt)
	p.Write(q.priAddr(a), bp)
	p.Write(q.valAddr(a), bv)
	p.Write(q.tagAddr(b), at)
	p.Write(q.priAddr(b), ap)
	p.Write(q.valAddr(b), av)
}

// DeleteMin takes the root item, moves the most recently placed item into
// the root, and sifts it down with hand-over-hand node locks. The root
// item is taken even if it is still tagged by an in-flight inserter:
// anything at the root already out-bubbled its whole path, and the
// inserter's final root check tolerates finding its tag gone (the item
// was adopted). Waiting for the root to become AVAILABLE instead would
// let a deleter holding the size lock starve the very inserter it is
// waiting for.
func (q *Hunt) DeleteMin(p *sim.Proc) (uint64, bool) {
	q.lock.Acquire(p)
	n := p.Read(q.size)
	if n == 0 {
		q.lock.Release(p)
		return 0, false
	}
	p.Write(q.size, n-1)
	last := bitRevPos(n)
	q.locks[1].Acquire(p)
	if last == 1 {
		q.lock.Release(p)
		out := p.Read(q.valAddr(1))
		p.Write(q.tagAddr(1), huntEmpty)
		q.locks[1].Release(p)
		return out, true
	}
	q.locks[last].Acquire(p)
	q.lock.Release(p)

	lpri := p.Read(q.priAddr(last))
	lval := p.Read(q.valAddr(last))
	p.Write(q.tagAddr(last), huntEmpty)
	q.locks[last].Release(p)

	if p.Read(q.tagAddr(1)) == huntEmpty {
		// Defensive: deleters are serialized on the size lock through root
		// acquisition, so the root cannot normally be empty here. If it
		// is, the last item itself is our result.
		q.locks[1].Release(p)
		return lval, true
	}
	out := p.Read(q.valAddr(1))
	// Adopt the moved item: even if it was mid-insertion, it is now placed
	// and AVAILABLE; its inserter will observe the changed tag and stop.
	p.Write(q.priAddr(1), lpri)
	p.Write(q.valAddr(1), lval)
	p.Write(q.tagAddr(1), huntAvail)

	// Sift down holding the current node's lock; lock children one at a
	// time in index order.
	i := uint64(1)
	for {
		l, r := 2*i, 2*i+1
		if l > uint64(q.slots-1) {
			break
		}
		q.locks[l].Acquire(p)
		var rLocked bool
		if r <= uint64(q.slots-1) {
			q.locks[r].Acquire(p)
			rLocked = true
		}
		lt := p.Read(q.tagAddr(l))
		rt := uint64(huntEmpty)
		if rLocked {
			rt = p.Read(q.tagAddr(r))
		}
		// A mid-insertion child blocks the sift; its owner's bubble-up
		// will finish the reordering against the item we just placed.
		if (lt != huntEmpty && lt != huntAvail) || (rt != huntEmpty && rt != huntAvail) {
			if rLocked {
				q.locks[r].Release(p)
			}
			q.locks[l].Release(p)
			break
		}
		child := uint64(0)
		var cpri uint64
		if lt == huntAvail {
			child, cpri = l, p.Read(q.priAddr(l))
		}
		if rt == huntAvail {
			if rp := p.Read(q.priAddr(r)); child == 0 || rp < cpri {
				child, cpri = r, rp
			}
		}
		if child == 0 || cpri >= p.Read(q.priAddr(i)) {
			if rLocked {
				q.locks[r].Release(p)
			}
			q.locks[l].Release(p)
			break
		}
		q.stats.siftSteps++
		q.swapNodes(p, i, child)
		// Release everything except the child we descend into.
		if rLocked && child != r {
			q.locks[r].Release(p)
		}
		if child != l {
			q.locks[l].Release(p)
		}
		q.locks[i].Release(p)
		i = child
	}
	q.locks[i].Release(p)
	return out, true
}

var _ Queue = (*Hunt)(nil)
