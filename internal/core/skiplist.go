package core

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"pq/internal/funnel"
)

// Skip-list link states (same machine as internal/simpq's SkipList).
const (
	slUnthreaded int32 = iota
	slThreading
	slThreaded
	slUnlinking
)

type slLink[V any] struct {
	level int
	fwd   []atomic.Int32 // link index + 1; 0 = nil
	state atomic.Int32
	mu    sync.Mutex
	bin   *funnel.Bag[V]
}

// skipList is the bounded-range skip-list queue of Figure 12: one
// preallocated link (with a bin) per priority, threaded into a Pugh-style
// concurrent skip list while its bin may hold items; deletions drain a
// separate delete-bin (Johnson's idea), refilled by unlinking the first
// link.
type skipList[V any] struct {
	npri     int
	maxLevel int
	headFwd  []atomic.Int32
	headMu   sync.Mutex
	links    []slLink[V]
	delBin   atomic.Int32 // link index + 1, or 0
	delMu    sync.Mutex
}

// NewSkipList builds the skip-list queue. Link heights use Pugh's p=1/2
// distribution from a deterministic source, fixed at construction; each
// link's bin is a bag in the configured discipline.
func NewSkipList[V any](cfg Config) Queue[V] {
	maxLevel := 1
	for n := cfg.Priorities; n > 1; n /= 2 {
		maxLevel++
	}
	q := &skipList[V]{
		npri:     cfg.Priorities,
		maxLevel: maxLevel,
		headFwd:  make([]atomic.Int32, maxLevel),
		links:    make([]slLink[V], cfg.Priorities),
	}
	rng := rand.New(rand.NewSource(0x5eed51))
	for i := range q.links {
		level := 1
		for level < maxLevel && rng.Intn(2) == 0 {
			level++
		}
		q.links[i].level = level
		q.links[i].fwd = make([]atomic.Int32, level)
		q.links[i].bin = funnel.NewBag[V](cfg.FIFOBins)
	}
	return q
}

func (q *skipList[V]) NumPriorities() int { return q.npri }

func (q *skipList[V]) Insert(pri int, v V) {
	checkPri(pri, q.npri)
	l := &q.links[pri]
	l.bin.Push(v)
	q.ensureThreaded(pri)
}

// ensureThreaded links pri's node into the skip list if no one has yet,
// and returns only once the bin just filled is reachable: it waits out
// another goroutine's slThreading, since until that goroutine links level
// 0 a delete can find the list and the delete bin empty and report an
// empty queue over a completed insert. slUnlinking needs no wait — the
// unlinker holds delMu, only the delMu holder may conclude emptiness, and
// it publishes this link as the delete bin before releasing it.
func (q *skipList[V]) ensureThreaded(pri int) {
	l := &q.links[pri]
	for {
		switch l.state.Load() {
		case slUnthreaded:
			if l.state.CompareAndSwap(slUnthreaded, slThreading) {
				q.thread(pri)
				l.state.Store(slThreaded)
				return
			}
		case slThreading:
			runtime.Gosched()
		default:
			return
		}
	}
}

// InsertBatch fills each distinct priority's bin under one bin lock hold
// and threads its link once, instead of one lock round trip per item.
func (q *skipList[V]) InsertBatch(items []Item[V]) {
	checkBatch(items, q.npri)
	for _, run := range GroupByPri(items) {
		q.links[run.Pri].bin.PushN(run.Vals)
		q.ensureThreaded(run.Pri)
	}
}

// lockPred locks the predecessor of key at level lev and returns it
// (-1 = head) together with its successor pointer.
func (q *skipList[V]) lockPred(pred, key, lev int) (int, int32) {
	for {
		var (
			mu  *sync.Mutex
			fwd *atomic.Int32
		)
		if pred < 0 {
			mu, fwd = &q.headMu, &q.headFwd[lev]
		} else {
			mu, fwd = &q.links[pred].mu, &q.links[pred].fwd[lev]
		}
		mu.Lock()
		if pred >= 0 {
			if st := q.links[pred].state.Load(); st != slThreaded {
				mu.Unlock()
				// Transient predecessors settle shortly; unthreaded ones
				// are simply gone. Either way restart from the head.
				if st == slThreading || st == slUnlinking {
					runtime.Gosched()
				}
				pred = -1
				continue
			}
		}
		succ := fwd.Load()
		if succ != 0 && int(succ-1) < key {
			mu.Unlock()
			pred = int(succ - 1)
			continue
		}
		return pred, succ
	}
}

func (q *skipList[V]) unlockPred(pred int) {
	if pred < 0 {
		q.headMu.Unlock()
	} else {
		q.links[pred].mu.Unlock()
	}
}

// thread links the claimed link for key into the list bottom-up.
func (q *skipList[V]) thread(key int) {
	l := &q.links[key]
	update := make([]int, q.maxLevel)
	pred := -1
	for lev := q.maxLevel - 1; lev >= 0; lev-- {
		for {
			var succ int32
			if pred < 0 {
				succ = q.headFwd[lev].Load()
			} else {
				succ = q.links[pred].fwd[lev].Load()
			}
			if succ == 0 || int(succ-1) >= key {
				break
			}
			pred = int(succ - 1)
		}
		update[lev] = pred
	}
	for lev := 0; lev < l.level; lev++ {
		lockedPred, succ := q.lockPred(update[lev], key, lev)
		l.fwd[lev].Store(succ)
		if lockedPred < 0 {
			q.headFwd[lev].Store(int32(key) + 1)
		} else {
			q.links[lockedPred].fwd[lev].Store(int32(key) + 1)
		}
		q.unlockPred(lockedPred)
	}
}

// unthread removes the link for key (state slUnlinking) from every level,
// re-finding the predecessor per level under locks.
func (q *skipList[V]) unthread(key int) {
	l := &q.links[key]
	for lev := l.level - 1; lev >= 0; lev-- {
		pred := -1
		for {
			var (
				mu  *sync.Mutex
				fwd *atomic.Int32
			)
			if pred < 0 {
				mu, fwd = &q.headMu, &q.headFwd[lev]
			} else {
				mu, fwd = &q.links[pred].mu, &q.links[pred].fwd[lev]
			}
			mu.Lock()
			succ := fwd.Load()
			if succ == int32(key)+1 {
				// Lock the link itself (predecessor first — key order)
				// before reading its forward pointer: a threader holding
				// the link's lock may be concurrently linking a new node
				// behind it, and a stale read here would splice that node
				// out of the level.
				l.mu.Lock()
				fwd.Store(l.fwd[lev].Load())
				l.mu.Unlock()
				mu.Unlock()
				break
			}
			mu.Unlock()
			if succ != 0 && int(succ-1) < key {
				pred = int(succ - 1)
				continue
			}
			break // not linked at this level
		}
	}
}

func (q *skipList[V]) DeleteMin() (V, bool) {
	var zero V
	for {
		db := q.delBin.Load()
		if db != 0 {
			if e, ok := q.links[db-1].bin.Pop(); ok {
				return e, true
			}
		}
		if q.delMu.TryLock() {
			// Re-validate under the lock: another deleter may have already
			// repointed the delete bin, or an insert may have refilled the
			// current one. Moving the delete bin away from a non-empty bin
			// would strand its items.
			if cur := q.delBin.Load(); cur != db || (cur != 0 && !q.links[cur-1].bin.Empty()) {
				q.delMu.Unlock()
				continue
			}
			first := q.headFwd[0].Load()
			if first == 0 {
				q.delMu.Unlock()
				// Nothing threaded and the delete bin is empty.
				return zero, false
			}
			key := int(first - 1)
			if !q.links[key].state.CompareAndSwap(slThreaded, slUnlinking) {
				q.delMu.Unlock()
				runtime.Gosched()
				continue
			}
			q.unthread(key)
			q.delBin.Store(int32(key) + 1)
			q.links[key].state.Store(slUnthreaded)
			q.delMu.Unlock()
			continue
		}
		// Someone else is refilling; only the lock holder may conclude
		// emptiness (mid-refill the head is transiently nil while the
		// delete bin is not yet published).
		runtime.Gosched()
	}
}

// DeleteMinBatch drains the delete bin with one lock hold per refill
// instead of one per item: the delete-bin pointer is the resumable cursor
// — each pass drains what the current bin holds, and the refill protocol
// advances it exactly as for single deletes. A short batch is returned as
// soon as the refill path is contended, rather than spinning while
// holding items.
func (q *skipList[V]) DeleteMinBatch(k int) []Item[V] {
	if k <= 0 {
		return nil
	}
	var out []Item[V]
	for len(out) < k {
		db := q.delBin.Load()
		if db != 0 {
			vals := q.links[db-1].bin.PopN(k - len(out))
			for _, v := range vals {
				out = append(out, Item[V]{Pri: int(db - 1), Val: v})
			}
			if len(out) == k {
				break
			}
		}
		if q.delMu.TryLock() {
			// Same re-validation as DeleteMin: moving the delete bin away
			// from a non-empty bin would strand its items.
			if cur := q.delBin.Load(); cur != db || (cur != 0 && !q.links[cur-1].bin.Empty()) {
				q.delMu.Unlock()
				continue
			}
			first := q.headFwd[0].Load()
			if first == 0 {
				q.delMu.Unlock()
				break // nothing threaded and the delete bin is empty
			}
			key := int(first - 1)
			if !q.links[key].state.CompareAndSwap(slThreaded, slUnlinking) {
				q.delMu.Unlock()
				if len(out) > 0 {
					break
				}
				runtime.Gosched()
				continue
			}
			q.unthread(key)
			q.delBin.Store(int32(key) + 1)
			q.links[key].state.Store(slUnthreaded)
			q.delMu.Unlock()
			continue
		}
		if len(out) > 0 {
			break
		}
		runtime.Gosched()
	}
	return out
}
