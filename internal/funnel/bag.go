package funnel

import (
	"slices"
	"sync"
	"sync/atomic"
)

// Bag is the paper's Figure-1 bin: a locked bag of values with an
// atomic size, so the emptiness test stays a single read with no lock,
// and an items slice with a head index. It hands items out
// last-in-first-out, as the paper's stack bins do, or, built by
// NewBag(true), first-in-first-out, the fairness alternative of the
// paper's Section 3.2. It is the central storage of a Stack and, on its
// own, the lock bin of the native bin-array, counter-tree and skip-list
// queues. The paper locks its bins with MCS queue locks, built for one
// thread per processor; goroutines can be descheduled while waiting, so
// the lock here is a sync.Mutex, which lets a running goroutine take a
// free lock instead of handing it to a queued one. The zero value is an
// empty LIFO bag.
type Bag[V any] struct {
	mu    sync.Mutex
	size  atomic.Int64
	items []V
	head  int // FIFO: index of the oldest stored item
	fifo  bool
}

// NewBag builds an empty bag, FIFO when fifo is set and LIFO otherwise.
func NewBag[V any](fifo bool) *Bag[V] {
	return &Bag[V]{fifo: fifo}
}

// Len returns a snapshot of the bag's size. It costs one atomic read,
// which is what makes scanning many bags for emptiness cheap.
func (b *Bag[V]) Len() int { return int(b.size.Load()) }

// Empty reports whether the bag currently looks empty.
func (b *Bag[V]) Empty() bool { return b.size.Load() == 0 }

// Push adds v.
func (b *Bag[V]) Push(v V) {
	b.mu.Lock()
	b.pushLocked(v)
	b.mu.Unlock()
}

// PushN adds every element of vs, in order, under one lock hold.
func (b *Bag[V]) PushN(vs []V) {
	if len(vs) == 0 {
		return
	}
	b.mu.Lock()
	b.pushLocked(vs...)
	b.mu.Unlock()
}

// Pop removes the next item in the bag's discipline, or reports
// ok=false if the bag is empty.
func (b *Bag[V]) Pop() (V, bool) {
	b.mu.Lock()
	v, ok := b.popLocked()
	b.mu.Unlock()
	return v, ok
}

// PopN removes up to k items under one lock hold and appends them to
// dst in the order k sequential Pops would have returned them.
func (b *Bag[V]) PopN(dst []V, k int) []V {
	if k <= 0 {
		return dst
	}
	b.mu.Lock()
	n := len(b.items)
	avail := min(k, n-b.head)
	dst = slices.Grow(dst, avail)
	var taken []V
	if b.fifo {
		taken = b.items[b.head : b.head+avail]
		dst = append(dst, taken...)
		b.head += avail
	} else {
		n -= avail
		taken = b.items[n:]
		for i := avail - 1; i >= 0; i-- {
			dst = append(dst, taken[i])
		}
	}
	clear(taken) // release references for GC
	b.truncateLocked(n)
	b.mu.Unlock()
	return dst
}

// pushLocked adds vs in order; b.mu must be held. An append that would
// grow the slice first drops the slots a FIFO bag's pops have left before
// head: in place when head is at least half the slice, so the copy moves
// no more items than it frees slots, and otherwise by letting the append
// reallocate for the live items alone. Either way the slice stays within
// about twice the most items the bag has held.
func (b *Bag[V]) pushLocked(vs ...V) {
	if n := len(b.items); n+len(vs) > cap(b.items) {
		live := b.items[b.head:]
		if 2*b.head >= n {
			live = append(b.items[:0], live...)
			clear(b.items[len(live):n]) // release references for GC
		}
		b.items, b.head = live, 0
	}
	b.items = append(b.items, vs...)
	b.size.Store(int64(len(b.items) - b.head))
}

// popLocked is Pop for a caller that already holds b.mu.
func (b *Bag[V]) popLocked() (v V, ok bool) {
	n, i := len(b.items), b.head
	if n == i {
		return v, false
	}
	if b.fifo {
		b.head++
	} else {
		n--
		i = n
	}
	v, b.items[i] = b.items[i], v // v is zero: release the reference for GC
	b.truncateLocked(n)
	return v, true
}

// truncateLocked keeps the first n stored slots and republishes the
// size; b.mu must be held.
func (b *Bag[V]) truncateLocked(n int) {
	b.items = b.items[:n]
	b.size.Store(int64(n - b.head))
}
