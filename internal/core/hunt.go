package core

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// Node tags for the Hunt et al. heap. Values >= huntTagPid are goroutine
// operation ids + huntTagPid.
const (
	huntEmpty uint64 = iota
	huntAvail
	huntTagPid
)

type huntNode[V any] struct {
	mu  sync.Mutex
	tag uint64
	pri int
	val V
}

// hunt is the native port of the concurrent heap of Hunt, Michael,
// Parthasarathy and Scott: one small lock around the heap size, one lock
// and tag per node, bit-reversed insertion scatter, bottom-up insertions
// racing top-down deletions. See internal/simpq's Hunt for the documented
// protocol (this is the same algorithm on sync.Mutex and atomics),
// including the adoption simplification.
type hunt[V any] struct {
	npri  int
	mu    sync.Mutex // protects size
	size  uint64
	pages atomic.Pointer[[]*huntPage[V]]
	opID  atomic.Uint64
}

// huntPageBits fixes the node-page size; node addresses are stable
// because pages never move — growth only appends new pages to a copied
// page-pointer slice.
const huntPageBits = 8

type huntPage[V any] [1 << huntPageBits]huntNode[V]

// NewHunt builds the Hunt et al. heap queue.
func NewHunt[V any](cfg Config) Queue[V] {
	q := &hunt[V]{npri: cfg.Priorities}
	pages := []*huntPage[V]{new(huntPage[V])}
	q.pages.Store(&pages)
	return q
}

// node returns the stable storage for heap slot i.
func (q *hunt[V]) node(i uint64) *huntNode[V] {
	pages := *q.pages.Load()
	return &pages[i>>huntPageBits][i&(1<<huntPageBits-1)]
}

// slots reports the current capacity in heap slots.
func (q *hunt[V]) slots() uint64 {
	return uint64(len(*q.pages.Load())) << huntPageBits
}

func (q *hunt[V]) NumPriorities() int { return q.npri }

// bitRevPos maps insertion count k (1-based) to its heap slot with the
// offset bits within the level reversed.
func bitRevPos(k uint64) uint64 {
	l := uint(bits.Len64(k)) - 1
	offset := k - 1<<l
	return 1<<l + bits.Reverse64(offset)>>(64-l)
}

// grow ensures the paged node storage covers slot i. Called with the size
// lock held; existing pages never move, so node addresses stay valid for
// in-flight operations.
func (q *hunt[V]) grow(needSlot uint64) {
	cur := *q.pages.Load()
	need := int(needSlot>>huntPageBits) + 1
	if need <= len(cur) {
		return
	}
	bigger := make([]*huntPage[V], need)
	copy(bigger, cur)
	for i := len(cur); i < need; i++ {
		bigger[i] = new(huntPage[V])
	}
	q.pages.Store(&bigger)
}

func (q *hunt[V]) Insert(pri int, v V) {
	checkPri(pri, q.npri)
	mypid := q.opID.Add(1)<<8 | huntTagPid // unique per operation

	q.mu.Lock()
	i := q.placeLocked(pri, v, mypid)
	q.mu.Unlock()
	q.bubbleUp(i, pri, mypid)
}

// placeLocked claims the next heap slot and writes the item into it under
// its node lock, tagged with mypid so the bubble-up can recognize it.
// Called with the size lock held; the item is fully placed (countable by
// deleters) when this returns, even though it has not bubbled yet.
func (q *hunt[V]) placeLocked(pri int, v V, mypid uint64) uint64 {
	q.size++
	i := bitRevPos(q.size)
	q.grow(i)
	ni := q.node(i)
	ni.mu.Lock()
	tag := mypid
	if i == 1 {
		tag = huntAvail
	}
	ni.pri, ni.val, ni.tag = pri, v, tag
	ni.mu.Unlock()
	return i
}

// bubbleUp floats the item tagged mypid from slot i toward the root,
// hand-over-hand with parent-then-child lock order.
func (q *hunt[V]) bubbleUp(i uint64, pri int, mypid uint64) {
	for i > 1 {
		parent := i / 2
		np, ni := q.node(parent), q.node(i)
		np.mu.Lock()
		ni.mu.Lock()
		if ni.tag != mypid {
			// A deletion adopted our item; it is placed.
			ni.mu.Unlock()
			np.mu.Unlock()
			return
		}
		switch pt := np.tag; {
		case pt == huntAvail:
			if ni.pri < np.pri {
				ni.tag, np.tag = np.tag, ni.tag
				ni.pri, np.pri = np.pri, ni.pri
				ni.val, np.val = np.val, ni.val
				ni.mu.Unlock()
				np.mu.Unlock()
				i = parent
			} else {
				ni.tag = huntAvail
				ni.mu.Unlock()
				np.mu.Unlock()
				return
			}
		case pt == huntEmpty:
			ni.tag = huntAvail
			ni.mu.Unlock()
			np.mu.Unlock()
			return
		default:
			// Parent mid-insertion by another operation: yield and retry.
			ni.mu.Unlock()
			np.mu.Unlock()
			runtime.Gosched()
		}
	}
	if i == 1 {
		n1 := q.node(1)
		n1.mu.Lock()
		if n1.tag == mypid {
			n1.tag = huntAvail
		}
		n1.mu.Unlock()
	}
}

func (q *hunt[V]) DeleteMin() (V, bool) {
	q.mu.Lock()
	_, v, ok := q.popUnlocking(q.mu.Unlock)
	return v, ok
}

// popUnlocking removes the minimum, invoking release at the protocol's
// early-release point (once the root and last nodes are locked) so the
// sift-down runs without the size lock. Batch deletes pass a no-op and
// keep the size lock across pops, so each pop sees a fully settled root
// and the batch comes out in true min order at quiescence.
func (q *hunt[V]) popUnlocking(release func()) (int, V, bool) {
	var zero V
	if q.size == 0 {
		release()
		return 0, zero, false
	}
	n := q.size
	q.size--
	last := bitRevPos(n)
	n1 := q.node(1)
	n1.mu.Lock()
	if last == 1 {
		release()
		outP, out := n1.pri, n1.val
		n1.tag = huntEmpty
		n1.val = zero
		n1.mu.Unlock()
		return outP, out, true
	}
	nl := q.node(last)
	nl.mu.Lock()
	release()

	lp, lv := nl.pri, nl.val
	nl.tag = huntEmpty
	nl.val = zero
	nl.mu.Unlock()

	if n1.tag == huntEmpty {
		// The root's item is mid-flight in someone's bubble-up: adopt the
		// last item instead (the protocol's adoption simplification).
		n1.mu.Unlock()
		return lp, lv, true
	}
	outP, out := n1.pri, n1.val
	n1.pri, n1.val, n1.tag = lp, lv, huntAvail
	q.siftDown(n1)
	return outP, out, true
}

// siftDown restores heap order from the root, hand-over-hand with
// parent-then-child lock order; called with the root's lock held.
func (q *hunt[V]) siftDown(n1 *huntNode[V]) {
	i := uint64(1)
	cur := n1
	for {
		l, r := 2*i, 2*i+1
		if l >= q.slots() {
			break
		}
		nL := q.node(l)
		nL.mu.Lock()
		var nR *huntNode[V]
		if r < q.slots() {
			nR = q.node(r)
			nR.mu.Lock()
		}
		lt := nL.tag
		rt := huntEmpty
		if nR != nil {
			rt = nR.tag
		}
		if (lt != huntEmpty && lt != huntAvail) || (rt != huntEmpty && rt != huntAvail) {
			// Mid-insertion child: its bubble-up finishes the reordering.
			if nR != nil {
				nR.mu.Unlock()
			}
			nL.mu.Unlock()
			break
		}
		var child *huntNode[V]
		childIdx := uint64(0)
		cpri := 0
		if lt == huntAvail {
			child, childIdx, cpri = nL, l, nL.pri
		}
		if rt == huntAvail && (child == nil || nR.pri < cpri) {
			child, childIdx, cpri = nR, r, nR.pri
		}
		if child == nil || cpri >= cur.pri {
			if nR != nil {
				nR.mu.Unlock()
			}
			nL.mu.Unlock()
			break
		}
		cur.tag, child.tag = child.tag, cur.tag
		cur.pri, child.pri = child.pri, cur.pri
		cur.val, child.val = child.val, cur.val
		if nR != nil && child != nR {
			nR.mu.Unlock()
		}
		if child != nL {
			nL.mu.Unlock()
		}
		cur.mu.Unlock()
		i, cur = childIdx, child
	}
	cur.mu.Unlock()
}

// InsertBatch places the whole batch under one size-lock hold (sorted by
// priority, so earlier placements — which land at shallower or equal
// levels — never need to pass later ones), then runs the bubble-ups after
// releasing it, in placement order: each item's upward path holds only
// already-settled batch items, so the bubbles are the same races the
// single-item protocol already resolves.
func (q *hunt[V]) InsertBatch(items []Item[V]) {
	checkBatch(items, q.npri)
	if len(items) == 0 {
		return
	}
	runs := new(Batch[V]).GroupByPri(items)
	type placed struct {
		pri       int
		slot, pid uint64
	}
	ps := make([]placed, 0, len(items))
	q.mu.Lock()
	for _, run := range runs {
		for _, v := range run.Vals {
			pid := q.opID.Add(1)<<8 | huntTagPid
			ps = append(ps, placed{pri: run.Pri, slot: q.placeLocked(run.Pri, v, pid), pid: pid})
		}
	}
	q.mu.Unlock()
	for _, p := range ps {
		q.bubbleUp(p.slot, p.pri, p.pid)
	}
}

// DeleteMinBatch holds the size lock across up to k pops — sift-downs
// included — so within the batch every pop removes the true current
// minimum instead of racing the previous pop's sift.
func (q *hunt[V]) DeleteMinBatch(k int) []Item[V] {
	return q.AppendDeleteMinBatch(make([]Item[V], 0, max(k, 0)), k)
}

// AppendDeleteMinBatch is DeleteMinBatch appending to dst.
func (q *hunt[V]) AppendDeleteMinBatch(dst []Item[V], k int) []Item[V] {
	if k <= 0 {
		return dst
	}
	q.mu.Lock()
	for ; k > 0; k-- {
		pri, v, ok := q.popUnlocking(func() {})
		if !ok {
			break
		}
		dst = append(dst, Item[V]{Pri: pri, Val: v})
	}
	q.mu.Unlock()
	return dst
}
