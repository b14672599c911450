package core

// heap is a sequential binary min-heap ordered by priority and then by
// insertion sequence: equal priorities come out first-in-first-out when
// fifo is set and last-in-first-out otherwise, the two disciplines of
// the bins. Its caller serializes access: SingleLock under its one
// mutex, the MultiQueue under each sub-heap's.
type heap[V any] struct {
	ents []heapEnt[V]
	seq  uint64
	fifo bool
}

type heapEnt[V any] struct {
	pri int
	key uint64 // insertion sequence, complemented under LIFO: smaller goes first
	val V
}

func (e *heapEnt[V]) less(o *heapEnt[V]) bool {
	return e.pri < o.pri || e.pri == o.pri && e.key < o.key
}

// push adds v at priority pri.
func (h *heap[V]) push(pri int, v V) {
	h.seq++
	e := heapEnt[V]{pri: pri, key: h.seq, val: v}
	if !h.fifo {
		e.key = ^e.key
	}
	h.ents = append(h.ents, e)
	i := len(h.ents) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.less(&h.ents[p]) {
			break
		}
		h.ents[i] = h.ents[p]
		i = p
	}
	h.ents[i] = e
}

// pop removes the first entry, or reports ok=false if h is empty.
func (h *heap[V]) pop() (Item[V], bool) {
	n := len(h.ents) - 1
	if n < 0 {
		return Item[V]{}, false
	}
	first, last := h.ents[0], h.ents[n]
	h.ents[n] = heapEnt[V]{} // release the reference for GC
	h.ents = h.ents[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && h.ents[c+1].less(&h.ents[c]) {
				c++
			}
			if !h.ents[c].less(&last) {
				break
			}
			h.ents[i] = h.ents[c]
			i = c
		}
		h.ents[i] = last
	}
	return Item[V]{Pri: first.pri, Val: first.val}, true
}
