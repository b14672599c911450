package core

import (
	"sync"
	"sync/atomic"

	"pq/internal/funnel"
	"pq/internal/mcs"
)

// Bin is what the bin-array and counter-tree queues need of a bin, on
// either twin: C is the per-operation context, struct{} natively and
// *sim.Proc on the simulator. Natively four kinds serve: the paper's
// default LIFO bag, the FIFO alternative it suggests for applications
// where stack-order unfairness matters (Section 3.2), and the
// combining-funnel stack in either discipline (*funnel.Stack, which
// LinearFunnels and FunnelTree use).
type Bin[C, V any] interface {
	Empty(c C) bool
	Push(c C, e V)
	PushN(c C, es []V)
	Pop(c C) (V, bool)
	PopN(c C, k int) []V
}

// newBins builds n native bins in the configured discipline: lock-based
// bins when funnels is nil, combining-funnel stacks tuned by *funnels
// otherwise.
func newBins[V any](n int, fifo bool, funnels *funnel.Params) []Bin[struct{}, V] {
	bins := make([]Bin[struct{}, V], n)
	for i := range bins {
		switch {
		case funnels != nil && fifo:
			bins[i] = stackBin[V]{funnel.NewFIFOStack[V](*funnels)}
		case funnels != nil:
			bins[i] = stackBin[V]{funnel.NewStack[V](*funnels)}
		case fifo:
			bins[i] = &fifoBin[V]{}
		default:
			bins[i] = &bin[V]{}
		}
	}
	return bins
}

// stackBin is a combining-funnel stack in a native queue's bin seam.
type stackBin[V any] struct{ s *funnel.Stack[V] }

func (b stackBin[V]) Empty(struct{}) bool        { return b.s.Empty() }
func (b stackBin[V]) Push(_ struct{}, e V)       { b.s.Push(e) }
func (b stackBin[V]) PushN(_ struct{}, es []V)   { b.s.PushN(es) }
func (b stackBin[V]) Pop(struct{}) (V, bool)     { return b.s.Pop() }
func (b stackBin[V]) PopN(_ struct{}, k int) []V { return b.s.PopN(k) }

// bin is the paper's Figure-1 bag: a locked slice plus an atomic size so
// the emptiness test stays a single read with no lock. The lock is the
// MCS queue lock, matching the paper's "list of bins using MCS locks".
type bin[V any] struct {
	lock  mcs.Lock
	size  atomic.Int64
	items []V
}

// Push adds e to the bin.
func (b *bin[V]) Push(_ struct{}, e V) {
	n := b.lock.Acquire()
	b.items = append(b.items, e)
	b.size.Store(int64(len(b.items)))
	b.lock.Release(n)
}

// PushN adds every element of es under one lock hold.
func (b *bin[V]) PushN(_ struct{}, es []V) {
	if len(es) == 0 {
		return
	}
	n := b.lock.Acquire()
	b.items = append(b.items, es...)
	b.size.Store(int64(len(b.items)))
	b.lock.Release(n)
}

// Empty reports whether the bin currently looks empty (one atomic read).
func (b *bin[V]) Empty(struct{}) bool { return b.size.Load() == 0 }

// PopN removes up to k elements under one lock hold, in the order k
// sequential deletes would have returned them (newest first).
func (b *bin[V]) PopN(_ struct{}, k int) []V {
	n := b.lock.Acquire()
	avail := k
	if avail > len(b.items) {
		avail = len(b.items)
	}
	out := make([]V, avail)
	var zero V
	tail := b.items[len(b.items)-avail:]
	for i := 0; i < avail; i++ {
		out[i] = tail[avail-1-i]
	}
	for i := range tail {
		tail[i] = zero // release references for GC
	}
	b.items = b.items[:len(b.items)-avail]
	b.size.Store(int64(len(b.items)))
	b.lock.Release(n)
	return out
}

// Pop removes and returns an unspecified element, or ok=false if the
// bin is empty.
func (b *bin[V]) Pop(struct{}) (V, bool) {
	n := b.lock.Acquire()
	if len(b.items) == 0 {
		b.lock.Release(n)
		var zero V
		return zero, false
	}
	last := len(b.items) - 1
	e := b.items[last]
	var zero V
	b.items[last] = zero
	b.items = b.items[:last]
	b.size.Store(int64(last))
	b.lock.Release(n)
	return e, true
}

// fifoBin is the FIFO-discipline alternative bin the paper suggests for
// applications where the stack bins' unfairness matters (Section 3.2).
type fifoBin[V any] struct {
	mu    sync.Mutex
	size  atomic.Int64
	items []V
	head  int
}

func (b *fifoBin[V]) Push(_ struct{}, e V) {
	b.mu.Lock()
	b.items = append(b.items, e)
	b.size.Store(int64(len(b.items) - b.head))
	b.mu.Unlock()
}

func (b *fifoBin[V]) PushN(_ struct{}, es []V) {
	if len(es) == 0 {
		return
	}
	b.mu.Lock()
	b.items = append(b.items, es...)
	b.size.Store(int64(len(b.items) - b.head))
	b.mu.Unlock()
}

func (b *fifoBin[V]) Empty(struct{}) bool { return b.size.Load() == 0 }

func (b *fifoBin[V]) PopN(_ struct{}, k int) []V {
	b.mu.Lock()
	defer b.mu.Unlock()
	avail := len(b.items) - b.head
	if avail > k {
		avail = k
	}
	out := make([]V, avail)
	copy(out, b.items[b.head:b.head+avail])
	var zero V
	for i := b.head; i < b.head+avail; i++ {
		b.items[i] = zero
	}
	b.head += avail
	if b.head == len(b.items) {
		b.items = b.items[:0]
		b.head = 0
	}
	b.size.Store(int64(len(b.items) - b.head))
	return out
}

func (b *fifoBin[V]) Pop(struct{}) (V, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var zero V
	if b.head == len(b.items) {
		return zero, false
	}
	e := b.items[b.head]
	b.items[b.head] = zero
	b.head++
	if b.head == len(b.items) {
		b.items = b.items[:0]
		b.head = 0
	}
	b.size.Store(int64(len(b.items) - b.head))
	return e, true
}
