package sim

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

// eventHeap is a binary min-heap of events ordered by (time, seq). seq is a
// strictly increasing tag assigned at push time, which makes the pop order
// deterministic for simultaneous events. Both sifts move a hole instead of
// swapping, so each level copies one event rather than two.
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
