package funnel

import "sync/atomic"

// StackLeaf is a Leaf that also owns a stack's operands and its central
// storage. V is the item type.
type StackLeaf[C, W, V any] interface {
	Leaf[C, W]
	// SetItem stores a push's operand in its record before publication;
	// Item reads a push record's operand.
	SetItem(c C, r *Rec[W], v V)
	Item(c C, r *Rec[W]) V
	// Carry readies v for delivery to pop record r and returns the value
	// its result word carries; Received returns the item a delivered
	// result value gave r.
	Carry(c C, r *Rec[W], v V) uint64
	Received(c C, r *Rec[W], value uint64) V
	// PushTree pushes the members' operands onto the central storage in
	// order, under one lock hold. PopOne pops one item; PopN pops up to
	// k under one lock hold, in the order k PopOne calls would.
	PushTree(c C, members []*Rec[W])
	PopOne(c C) (V, bool)
	PopN(c C, k int) []V
}

// StackProtocol is the funnel stack's operation, shared by the twins;
// Stack describes it.
type StackProtocol[C, W, V any, L StackLeaf[C, W, V]] struct {
	Protocol[C, W, L]
}

// Run drives one push (dir +1, with item) or pop (dir -1) through the
// funnel. A pop reports ok=false if the central storage ran dry, which
// elimination cannot cause: an eliminated pop always receives an item.
func (s *StackProtocol[C, W, V, L]) Run(c C, dir int64, item V) (V, bool) {
	my := s.Leaf.Record(c)
	if dir > 0 {
		s.Leaf.SetItem(c, my, item)
	}
	s.begin(c, my, dir)
	out, q, d, _ := s.collide(c, my, dir, true, 0)
	switch out {
	case outEliminated:
		return s.eliminate(c, my, q, dir)
	case outIncompatible:
		// Stack trees are always all-unit (batches bypass the layers), so
		// reversing trees at one layer have equal size and always pair
		// off; collide can never report this here.
		panic("funnel: incompatible stack trees")
	case outExit:
		if s.Leaf.CASLocation(c, my, locCode(d), 0) {
			return s.applyCentral(c, my, dir)
		}
	}
	// Captured: the root (or the eliminating peer) delivers results to
	// the whole flattened tree, so there is nothing to distribute.
	_, fail, value := s.awaitResult(c, my)
	v := s.Leaf.Received(c, my, value)
	s.done(c, my)
	return v, !fail
}

// eliminate pairs the members of two equal-size reversing trees: the
// i-th pop receives the i-th push's item. The captured root q's result
// is stored last: q is members[0] of its tree, and storing its result
// frees it to recycle its record, including the members slice this loop
// is still reading.
func (s *StackProtocol[C, W, V, L]) eliminate(c C, my, q *Rec[W], dir int64) (V, bool) {
	pushTree, popTree := my, q
	if dir < 0 {
		pushTree, popTree = q, my
	}
	var ownVal, qItem V
	qIsPop := false
	for i := range my.members {
		pushRec, popRec := pushTree.members[i], popTree.members[i]
		item := s.Leaf.Item(c, pushRec)
		switch popRec {
		case my:
			ownVal = item
		case q:
			qItem, qIsPop = item, true
		default:
			s.Leaf.StoreResult(c, popRec, encodeResult(true, false, s.Leaf.Carry(c, popRec, item)))
		}
		if pushRec != my && pushRec != q {
			s.Leaf.StoreResult(c, pushRec, encodeResult(true, false, 0))
		}
	}
	var qValue uint64
	if qIsPop {
		qValue = s.Leaf.Carry(c, q, qItem)
	}
	s.Leaf.StoreResult(c, q, encodeResult(true, false, qValue))
	s.done(c, my)
	return ownVal, true
}

// applyCentral applies the whole homogeneous tree to the central storage
// and hands results to every member.
func (s *StackProtocol[C, W, V, L]) applyCentral(c C, my *Rec[W], dir int64) (V, bool) {
	s.Leaf.Count(c, Central, len(my.members))
	var ownVal V
	if dir > 0 {
		s.Leaf.PushTree(c, my.members)
		for _, mem := range my.members[1:] {
			s.Leaf.StoreResult(c, mem, encodeResult(false, false, 0))
		}
		s.done(c, my)
		return ownVal, true
	}

	if len(my.members) == 1 {
		// An uncombined pop (the common case at low contention).
		v, ok := s.Leaf.PopOne(c)
		s.done(c, my)
		return v, ok
	}

	popped := s.Leaf.PopN(c, len(my.members))
	ownOK := true
	for i, mem := range my.members {
		ok := i < len(popped)
		if mem == my {
			if ok {
				ownVal = popped[i]
			} else {
				ownOK = false
			}
			continue
		}
		if ok {
			s.Leaf.StoreResult(c, mem, encodeResult(false, false, s.Leaf.Carry(c, mem, popped[i])))
		} else {
			s.Leaf.StoreResult(c, mem, encodeResult(false, true, 0))
		}
	}
	s.done(c, my)
	return ownVal, ownOK
}

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
	// proto is its own allocation, so the words the layers read on every
	// step stay off the cache lines the central storage's lock takes.
	proto *StackProtocol[struct{}, words[V], V, nativeStack[V]]
	// direct counts operations the central-first step applied under mu;
	// it sits just before the Bag's mu, on the cache line that step has
	// just taken.
	direct atomic.Int64
	Bag[V] // the central storage
}

// nativeStack is the native leaf of a Stack: operands live in the
// records' item words and the central storage is the Stack's Bag.
type nativeStack[V any] struct {
	*native[V]
	bag *Bag[V]
}

func (l nativeStack[V]) SetItem(_ struct{}, r *Rec[words[V]], v V) { r.Words.item = v }
func (l nativeStack[V]) Item(_ struct{}, r *Rec[words[V]]) V       { return r.Words.item }

// Carry stores v in r's item word; the result word carries no value.
func (l nativeStack[V]) Carry(_ struct{}, r *Rec[words[V]], v V) uint64 {
	r.Words.item = v
	return 0
}

func (l nativeStack[V]) Received(_ struct{}, r *Rec[words[V]], _ uint64) V { return r.Words.item }

func (l nativeStack[V]) PushTree(_ struct{}, members []*Rec[words[V]]) {
	l.bag.mu.Lock()
	for _, mem := range members {
		l.bag.pushLocked(mem.Words.item)
	}
	l.bag.mu.Unlock()
}

func (l nativeStack[V]) PopOne(struct{}) (V, bool)  { return l.bag.Pop() }
func (l nativeStack[V]) PopN(_ struct{}, k int) []V { return l.bag.PopN(nil, k) }

// NewStack builds an empty LIFO funnel stack.
func NewStack[V any](params Params) *Stack[V] {
	return newStack[V](params, false)
}

// NewFIFOStack builds the hybrid bin: funnel elimination with FIFO
// central storage.
func NewFIFOStack[V any](params Params) *Stack[V] {
	return newStack[V](params, true)
}

func newStack[V any](params Params, fifo bool) *Stack[V] {
	params = params.normalized()
	s := &Stack[V]{Bag: Bag[V]{fifo: fifo}}
	s.proto = &StackProtocol[struct{}, words[V], V, nativeStack[V]]{
		newProtocol(params, nativeStack[V]{newNative[V](params), &s.Bag}),
	}
	return s
}

// Stats reports how this stack's operations have resolved so far;
// Central includes the operations the central-first step applied.
func (s *Stack[V]) Stats() Stats {
	st := s.proto.Leaf.stats.snapshot()
	st.Central += s.direct.Load()
	return st
}

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
	s.proto.Leaf.stats.central.Add(1)
	s.Bag.PushN(vs)
}

// PopN removes up to k items in one central application and appends
// them to dst, in the same order k sequential Pops would have returned
// them. Like PushN it goes straight to the central stack under one lock
// hold.
func (s *Stack[V]) PopN(dst []V, k int) []V {
	if k <= 0 {
		return dst
	}
	s.proto.Leaf.stats.central.Add(1)
	return s.Bag.PopN(dst, k)
}

func (s *Stack[V]) run(dir int64, item V) (V, bool) {
	if s.proto.adaptive && s.mu.TryLock() {
		// Central first: a free lock means no conflict, and the operation
		// applies as a one-member tree leaving the funnel would. Only a
		// busy lock sends it into the layers.
		s.direct.Add(1)
		if dir > 0 {
			s.pushLocked(item)
			s.mu.Unlock()
			return item, true
		}
		v, ok := s.popLocked()
		s.mu.Unlock()
		return v, ok
	}
	return s.proto.Run(struct{}{}, dir, item)
}
