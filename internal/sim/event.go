package sim

import "math/bits"

// Event kinds: an ordinary processor resumption, or the enactment of a
// fault-plan crash.
const (
	evResume uint8 = iota
	evCrash
)

// event is a scheduled resumption of a processor at a simulated time. val
// carries the result of the memory operation the processor is blocked on.
// kind distinguishes resumptions from fault-plan crash enactments. The
// field order keeps the struct at 32 bytes; the heap copies it on every
// sift step.
type event struct {
	time int64
	seq  uint64
	val  uint64
	proc int32
	kind uint8
}

// before reports whether e pops ahead of o.
func (e *event) before(o *event) bool {
	if e.time != o.time {
		return e.time < o.time
	}
	return e.seq < o.seq
}

// wheelSize is the span of the event wheel's window in cycles: one bucket
// per cycle. Nearly every event the engine schedules is due within a few
// hundred cycles of the current one; of the 2.1M events of a 256-processor
// FunnelTree, SimpleTree and SimpleLinear round, 471 are due later. A power
// of two and a multiple of 64.
const wheelSize = 1024

// eventWheel is the engine's event calendar (Brown's calendar queue, one
// bucket per cycle). It pops in exactly the (time, seq) order of an
// eventHeap, provided no event is pushed before the last popped time, the
// cursor; such a push panics.
//
// Events due in the window [cur, cur+wheelSize) sit in their cycle's
// bucket, a circular FIFO list threaded through nodes and entered at its
// tail. A bitmap of occupied buckets lets pop skip empty stretches a word
// at a time. Later events wait in the overflow heap and move into their
// bucket as soon as the cursor brings their cycle into the window, which
// is before any direct push to that cycle can happen. So every bucket holds
// one cycle's events in push order, which is seq order.
type eventWheel struct {
	cur int64 // no pending event is due before cur
	n   int   // events in buckets
	occ [wheelSize / 64]uint64
	// nodes grows only to the peak number of pending events; freed nodes
	// form a list through next, headed by free-1 (0: the list is empty).
	free  int32
	nodes []wheelNode
	tail  [wheelSize]int32 // each bucket's last node, whose next is its first
	over  eventHeap
}

type wheelNode struct {
	e    event
	next int32
}

func (w *eventWheel) len() int { return w.n + w.over.len() }

// push appends e to its cycle's bucket, or keeps it in the overflow heap
// when it is due beyond the window.
func (w *eventWheel) push(e event) {
	if uint64(e.time-w.cur) >= wheelSize {
		w.pushFar(e)
		return
	}
	var i int32
	if w.free != 0 {
		i = w.free - 1
		w.free = w.nodes[i].next
	} else {
		i = int32(len(w.nodes))
		w.nodes = append(w.nodes, wheelNode{})
	}
	nd := &w.nodes[i]
	// Field by field: e arrives in registers and is spilled a field at a
	// time, and a whole-struct copy would reload it with wider loads that
	// cannot be forwarded from those stores.
	nd.e.time, nd.e.seq, nd.e.val, nd.e.proc, nd.e.kind = e.time, e.seq, e.val, e.proc, e.kind
	b := e.time & (wheelSize - 1)
	if bit := uint64(1) << (b & 63); w.occ[b>>6]&bit != 0 {
		t := &w.nodes[w.tail[b]]
		nd.next, t.next = t.next, i
	} else {
		w.occ[b>>6] |= bit
		nd.next = i
	}
	w.tail[b] = i
	w.n++
}

// pushFar keeps e in the overflow heap. It is also where a push before the
// cursor lands, since it is the far end of the unsigned window test.
func (w *eventWheel) pushFar(e event) {
	if e.time < w.cur {
		panic("sim: event scheduled before the current cycle")
	}
	w.over.push(e)
}

func (w *eventWheel) pop() event {
	if w.n == 0 {
		// Everything pending is beyond the window: jump to the earliest.
		w.cur = w.over.a[0].time
		w.refill()
	}
	b := w.nextBucket()
	w.cur += (b - w.cur) & (wheelSize - 1) // to bucket b's cycle
	if w.over.len() > 0 {
		w.refill()
	}
	t := &w.nodes[w.tail[b]]
	i := t.next
	nd := &w.nodes[i]
	if nd == t {
		w.occ[b>>6] &^= 1 << (b & 63)
	} else {
		t.next = nd.next
	}
	nd.next = w.free
	w.free = i + 1
	w.n--
	return nd.e
}

// refill moves the overflow events the window now covers into their
// buckets.
func (w *eventWheel) refill() {
	for w.over.len() > 0 && w.over.a[0].time-w.cur < wheelSize {
		w.push(w.over.pop())
	}
}

// nextBucket returns the first occupied bucket at or after the cursor's,
// wrapping once around the wheel. The wheel must not be empty.
func (w *eventWheel) nextBucket() int64 {
	s := w.cur & (wheelSize - 1)
	k := s >> 6
	if x := w.occ[k] >> (s & 63); x != 0 {
		return s + int64(bits.TrailingZeros64(x))
	}
	for range len(w.occ) {
		k = (k + 1) & (int64(len(w.occ)) - 1)
		if x := w.occ[k]; x != 0 {
			return k<<6 + int64(bits.TrailingZeros64(x))
		}
	}
	panic("sim: pop from an empty event wheel")
}

// eventHeap is a binary min-heap of events ordered by (time, seq). seq is a
// strictly increasing tag assigned at push time, which makes the pop order
// deterministic for simultaneous events. Both sifts move a hole instead of
// swapping, so each level copies one event rather than two. The wheel keeps
// its events beyond the window here.
type eventHeap struct {
	a []event
}

func (h *eventHeap) len() int { return len(h.a) }

func (h *eventHeap) push(e event) {
	h.a = append(h.a, e)
	i := len(h.a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&h.a[parent]) {
			break
		}
		h.a[i] = h.a[parent]
		i = parent
	}
	h.a[i] = e
}

func (h *eventHeap) pop() event {
	top := h.a[0]
	n := len(h.a) - 1
	e := h.a[n]
	h.a = h.a[:n]
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h.a[c+1].before(&h.a[c]) {
			c++
		}
		if !h.a[c].before(&e) {
			break
		}
		h.a[i] = h.a[c]
		i = c
	}
	h.a[i] = e
	return top
}
