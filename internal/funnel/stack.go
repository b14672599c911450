package funnel

import (
	"sync"
	"sync/atomic"
)

// Stack is a combining-funnel stack of values of type V: concurrent
// pushes and pops combine into homogeneous trees in the funnel layers; a
// push tree meeting a pop tree of equal size eliminates, handing items
// directly across without touching the central stack; a tree that exits
// the funnel applies its whole batch to the central stack at once.
//
// Like the funnels it is built from, the stack is quiescently consistent.
//
// The central storage discipline is LIFO by default. NewFIFOStack builds
// the hybrid the paper suggests for fairness-sensitive uses (Section
// 3.2): elimination still happens in the funnel, but the central storage
// hands items out first-in-first-out, which keeps old items of equal
// priority from starving.
type Stack[V any] struct {
	core *core[V]
	mu   sync.Mutex
	// direct counts operations the central-first step applied under mu;
	// it shares mu's cache line, which that step has just taken.
	direct atomic.Int64
	items  []V
	head   int // FIFO mode: index of the oldest stored item
	fifo   bool
	size   atomic.Int64
}

// NewStack builds an empty LIFO funnel stack.
func NewStack[V any](params Params) *Stack[V] {
	return &Stack[V]{core: newCore[V](params)}
}

// NewFIFOStack builds the hybrid bin: funnel elimination with FIFO
// central storage.
func NewFIFOStack[V any](params Params) *Stack[V] {
	return &Stack[V]{core: newCore[V](params), fifo: true}
}

// Stats reports how this stack's operations have resolved so far;
// Central includes the operations the central-first step applied.
func (s *Stack[V]) Stats() Stats {
	st := s.core.stats.snapshot()
	st.Central += s.direct.Load()
	return st
}

// Len returns a snapshot of the central stack size. It costs one atomic
// read, which is what makes scanning many stacks for emptiness cheap.
func (s *Stack[V]) Len() int { return int(s.size.Load()) }

// Empty reports whether the stack currently looks empty.
func (s *Stack[V]) Empty() bool { return s.size.Load() == 0 }

// Push adds an item.
func (s *Stack[V]) Push(v V) {
	s.run(1, v)
}

// Pop removes an item, or reports ok=false if the stack ran dry.
func (s *Stack[V]) Pop() (V, bool) {
	return s.run(-1, *new(V))
}

// PushN adds all of vs in one central application: one lock hold for the
// whole batch. Batching is itself the amortization, so PushN bypasses the
// collision layers — funnel records carry exactly one item, and a batch
// pretending to be a unit operation would break elimination pairing.
func (s *Stack[V]) PushN(vs []V) {
	if len(vs) == 0 {
		return
	}
	s.core.stats.central.Add(1)
	s.mu.Lock()
	s.items = append(s.items, vs...)
	s.size.Store(int64(len(s.items) - s.head))
	s.mu.Unlock()
}

// PopN removes up to k items in one central application, in the same
// order k sequential Pops would have returned them. Like PushN it goes
// straight to the central stack under one lock hold.
func (s *Stack[V]) PopN(k int) []V {
	if k <= 0 {
		return nil
	}
	s.core.stats.central.Add(1)
	return s.popCentral(k)
}

func (s *Stack[V]) run(dir int64, item V) (V, bool) {
	if s.core.params.Adaptive && s.mu.TryLock() {
		// Central first: a free lock means no conflict, and the operation
		// applies as a one-member tree leaving the funnel would. Only a
		// busy lock sends it into the layers.
		s.direct.Add(1)
		if dir > 0 {
			s.items = append(s.items, item)
			s.size.Store(int64(len(s.items) - s.head))
			s.mu.Unlock()
			return item, true
		}
		v, ok := s.popLocked()
		s.mu.Unlock()
		return v, ok
	}
	my := s.core.begin(dir, item)
	mySum := dir
	d := 0
	for {
		var (
			out outcome
			q   *record[V]
		)
		out, q, d, mySum = s.core.collide(my, mySum, true, d)
		switch out {
		case outCaptured:
			_, fail, _ := my.awaitResult()
			v := my.item
			s.core.finish(my)
			return v, !fail

		case outEliminated:
			return s.eliminate(my, q, dir)

		case outIncompatible:
			// Stack trees are always all-unit, so reversing trees of equal
			// size always pair off; collide can never report this here.
			panic("funnel: incompatible stack trees")

		case outExit:
			if !my.location.CompareAndSwap(locCode(d), 0) {
				_, fail, _ := my.awaitResult()
				v := my.item
				s.core.finish(my)
				return v, !fail
			}
			return s.applyCentral(my, dir)
		}
	}
}

// eliminate pairs the members of two equal-size reversing trees; the i-th
// pop receives the i-th push's item. The captured root q's result is
// stored last: q is members[0] of its tree, and storing its result frees
// it to recycle its record — including the members slice this loop is
// still reading — so it must not be released before the loop finishes.
func (s *Stack[V]) eliminate(my, q *record[V], dir int64) (V, bool) {
	pushTree, popTree := my, q
	if dir < 0 {
		pushTree, popTree = q, my
	}
	var ownVal, qItem V
	qIsPop := false
	for i := range my.members {
		pushRec, popRec := pushTree.members[i], popTree.members[i]
		item := pushRec.item
		switch popRec {
		case my:
			ownVal = item
		case q:
			qItem, qIsPop = item, true
		default:
			popRec.item = item
			popRec.result.Store(encodeResult(true, false, 0))
		}
		if pushRec != my && pushRec != q {
			pushRec.result.Store(encodeResult(true, false, 0))
		}
	}
	if qIsPop {
		q.item = qItem
	}
	q.result.Store(encodeResult(true, false, 0))
	s.core.finish(my)
	return ownVal, true
}

// applyCentral applies the whole homogeneous tree to the central stack
// under its lock and hands results to every member.
func (s *Stack[V]) applyCentral(my *record[V], dir int64) (V, bool) {
	s.core.stats.central.Add(1)
	var ownVal V
	ownOK := true
	if dir > 0 {
		s.mu.Lock()
		for _, mem := range my.members {
			s.items = append(s.items, mem.item)
		}
		s.size.Store(int64(len(s.items) - s.head))
		s.mu.Unlock()
		for _, mem := range my.members[1:] {
			mem.result.Store(encodeResult(false, false, 0))
		}
		s.core.finish(my)
		return ownVal, true
	}

	if len(my.members) == 1 {
		// Uncombined pop (the common case at low contention): take one
		// item directly instead of paying popCentral's batch allocation.
		v, ok := s.pop1()
		s.core.finish(my)
		return v, ok
	}

	popped := s.popCentral(len(my.members))
	avail := len(popped)
	for i, mem := range my.members {
		ok := i < avail
		if mem == my {
			if ok {
				ownVal = popped[i]
			} else {
				ownOK = false
			}
			continue
		}
		if ok {
			mem.item = popped[i]
			mem.result.Store(encodeResult(false, false, 0))
		} else {
			mem.result.Store(encodeResult(false, true, 0))
		}
	}
	s.core.finish(my)
	return ownVal, ownOK
}

// pop1 removes one item from the central storage under the stack lock,
// honoring the LIFO/FIFO discipline — popCentral(1) without the result
// slice.
func (s *Stack[V]) pop1() (V, bool) {
	s.mu.Lock()
	v, ok := s.popLocked()
	s.mu.Unlock()
	return v, ok
}

// popLocked is pop1 for a caller that already holds the stack lock.
func (s *Stack[V]) popLocked() (V, bool) {
	var v, zero V
	if len(s.items)-s.head == 0 {
		return v, false
	}
	if s.fifo {
		v = s.items[s.head]
		s.items[s.head] = zero // release the reference for GC
		s.head++
		if s.head == len(s.items) {
			s.items = s.items[:0]
			s.head = 0
		}
	} else {
		last := len(s.items) - 1
		v = s.items[last]
		s.items[last] = zero // release the reference for GC
		s.items = s.items[:last]
	}
	s.size.Store(int64(len(s.items) - s.head))
	return v, true
}

// popCentral removes up to k items from the central storage under the
// stack lock, honoring the LIFO/FIFO discipline, and returns them in
// hand-out order.
func (s *Stack[V]) popCentral(k int) []V {
	s.mu.Lock()
	avail := k
	if n := len(s.items) - s.head; avail > n {
		avail = n
	}
	popped := make([]V, avail)
	var zero V
	if s.fifo {
		front := s.items[s.head : s.head+avail]
		copy(popped, front)
		for i := range front {
			front[i] = zero // release references for GC
		}
		s.head += avail
		if s.head == len(s.items) {
			s.items = s.items[:0]
			s.head = 0
		}
	} else {
		tail := s.items[len(s.items)-avail:]
		for i := 0; i < avail; i++ {
			popped[i] = tail[avail-1-i]
		}
		for i := range tail {
			tail[i] = zero // release references for GC
		}
		s.items = s.items[:len(s.items)-avail]
	}
	s.size.Store(int64(len(s.items) - s.head))
	s.mu.Unlock()
	return popped
}
