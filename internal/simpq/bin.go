package simpq

import (
	"slices"

	"pq/internal/sim"
)

// Bin is the lock-based bag of Figure 1 of the paper: an MCS-locked array
// holding arbitrary elements, supporting insertion, removal of an
// unspecified element, and a lock-free emptiness test. It hands elements
// out last-in-first-out, or, in a FunnelQueue's central storage,
// first-in-first-out from a ring whose head word only a FIFO bin
// allocates. It is the lock bin of the bin-array, counter-tree and
// skip-list queues and the central storage of a FunnelStack, and it
// mirrors the native funnel.Bag operation for operation.
type Bin struct {
	lock  *MCSLock
	size  sim.Addr
	head  sim.Addr // FIFO ring head; a LIFO bin keeps cells[0..size)
	cells sim.Addr
	cap   int
	fifo  bool

	// dropped counts elements lost to a full bin: like the paper's
	// bin-insert, a full bin silently drops them. Callers size bins so
	// this stays zero, and tests assert it does.
	dropped int
}

// NewBin allocates a LIFO bin with room for capacity elements.
func NewBin(m *sim.Machine, capacity int) *Bin {
	b := newBin(m, capacity, false, binLabels{"bin.size", "bin.head", "bin.elems"})
	return &b
}

// binLabels names a bin's size, head and cells words in contention
// profiles.
type binLabels struct{ size, head, cells string }

// newBin allocates a bin's lock, size word, FIFO head word and cells, in
// that order.
func newBin(m *sim.Machine, capacity int, fifo bool, l binLabels) Bin {
	b := Bin{lock: NewMCSLock(m), size: m.Alloc(1), cap: capacity, fifo: fifo}
	m.Label(b.size, 1, l.size)
	if fifo {
		b.head = m.Alloc(1)
		m.Label(b.head, 1, l.head)
	}
	b.cells = m.Alloc(capacity)
	m.Label(b.cells, capacity, l.cells)
	return b
}

// Metrics reports the bin's lock counters (prefix "lock").
func (b *Bin) Metrics() Metrics {
	m := Metrics{}
	m.add("lock", b.lock.Metrics())
	return m
}

// Empty reports whether the bin currently looks empty; it costs one read
// and takes no lock.
func (b *Bin) Empty(p *sim.Proc) bool {
	return p.Read(b.size) == 0
}

// Push adds e, or drops it if the bin is full.
func (b *Bin) Push(p *sim.Proc, e uint64) {
	b.lock.Acquire(p)
	if n := int(p.Read(b.size)); n < b.cap {
		b.putLocked(p, n, 1, func(int) uint64 { return e })
	} else {
		b.dropped++
	}
	b.lock.Release(p)
}

// PushN adds all elements under one lock hold — the batch fast path.
// Elements beyond capacity are dropped like Push's.
func (b *Bin) PushN(p *sim.Proc, es []uint64) {
	if len(es) > 0 {
		b.pushFunc(p, len(es), func(i int) uint64 { return es[i] })
	}
}

// pushFunc adds k elements under one lock hold, the i-th from elem(i),
// which may itself read simulated memory: a FunnelStack applying a
// combined tree reads each member's item just before storing it.
func (b *Bin) pushFunc(p *sim.Proc, k int, elem func(i int) uint64) {
	b.lock.Acquire(p)
	n := int(p.Read(b.size))
	stored := min(k, b.cap-n)
	b.putLocked(p, n, stored, elem)
	b.lock.Release(p)
	b.dropped += k - stored
}

// putLocked stores k elements after the n held, the i-th from elem(i),
// and publishes the new size; b.lock must be held and n+k ≤ cap.
func (b *Bin) putLocked(p *sim.Proc, n, k int, elem func(i int) uint64) {
	t := n
	if b.fifo {
		t = (int(p.Read(b.head)) + n) % b.cap
	}
	for i := 0; i < k; i++ {
		p.Write(b.cells+sim.Addr((t+i)%b.cap), elem(i))
	}
	p.Write(b.size, uint64(n+k))
}

// Pop removes and returns the next element in the bin's discipline, or
// ok=false if the bin is empty.
func (b *Bin) Pop(p *sim.Proc) (e uint64, ok bool) {
	b.lock.Acquire(p)
	if n := int(p.Read(b.size)); n > 0 {
		b.takeLocked(p, n, 1, func(_ int, v uint64) { e = v })
		ok = true
	}
	b.lock.Release(p)
	return e, ok
}

// PopN removes up to k elements under one lock hold and appends them to
// dst, in the order k consecutive Pops would return them; a short result
// means the bin ran dry.
func (b *Bin) PopN(p *sim.Proc, dst []uint64, k int) []uint64 {
	if k < 1 {
		return dst
	}
	b.lock.Acquire(p)
	n := int(p.Read(b.size))
	n0, k := len(dst), min(k, n)
	dst = slices.Grow(dst, k)[:n0+k]
	out := dst[n0:]
	b.takeLocked(p, n, k, func(i int, v uint64) { out[i] = v })
	b.lock.Release(p)
	return dst
}

// takeLocked removes k of the n held elements, handing the i-th to
// take, and publishes the new size; b.lock must be held and k ≤ n.
func (b *Bin) takeLocked(p *sim.Proc, n, k int, take func(i int, e uint64)) {
	if b.fifo {
		h := int(p.Read(b.head))
		for i := 0; i < k; i++ {
			take(i, p.Read(b.cells+sim.Addr((h+i)%b.cap)))
		}
		p.Write(b.head, uint64((h+k)%b.cap))
	} else {
		for i := 0; i < k; i++ {
			take(i, p.Read(b.cells+sim.Addr(n-1-i)))
		}
	}
	p.Write(b.size, uint64(n-k))
}

// Counter is the paper's shared counter (Figure 1) implemented with a
// lock, standing in for the "atomically" blocks the paper assumes are
// provided by hardware (e.g. Alewife's full/empty bits) on machines
// without fetch-and-add. It supports fetch-and-increment and bounded
// fetch-and-decrement, one at a time or n at once.
type Counter struct {
	lock *MCSLock
	val  sim.Addr
}

// NewCounter allocates a counter initialized to zero.
func NewCounter(m *sim.Machine) *Counter {
	c := &Counter{lock: NewMCSLock(m), val: m.Alloc(1)}
	m.Label(c.val, 1, "counter.val")
	return c
}

// Metrics reports the counter's lock counters (prefix "lock").
func (c *Counter) Metrics() Metrics {
	m := Metrics{}
	m.add("lock", c.lock.Metrics())
	return m
}

// update atomically replaces the counter's value v with f(v), writing
// only when that changes it, and returns v.
func (c *Counter) update(p *sim.Proc, f func(v uint64) uint64) uint64 {
	c.lock.Acquire(p)
	old := p.Read(c.val)
	if v := f(old); v != old {
		p.Write(c.val, v)
	}
	c.lock.Release(p)
	return old
}

// FaI atomically increments the counter and returns the previous value.
func (c *Counter) FaI(p *sim.Proc) uint64 { return c.AddN(p, 1) }

// BFaD atomically decrements the counter unless it is at or below bound,
// and returns the previous value (Figure 1's bounded fetch-and-decrement).
func (c *Counter) BFaD(p *sim.Proc, bound uint64) uint64 { return c.BSubN(p, 1, bound) }

// BFaI atomically increments the counter unless it is at or above bound,
// and returns the previous value (the analogous bounded
// fetch-and-increment).
func (c *Counter) BFaI(p *sim.Proc, bound uint64) uint64 {
	return c.update(p, func(v uint64) uint64 {
		if v < bound {
			return v + 1
		}
		return v
	})
}

// AddN atomically adds n and returns the previous value — n increments
// for one lock hold.
func (c *Counter) AddN(p *sim.Proc, n uint64) uint64 {
	return c.update(p, func(v uint64) uint64 { return v + n })
}

// BSubN atomically subtracts min(n, prev-bound) — n bounded decrements
// for one lock hold — and returns the previous value.
func (c *Counter) BSubN(p *sim.Proc, n, bound uint64) uint64 {
	return c.update(p, func(v uint64) uint64 {
		if v <= bound {
			return v
		}
		return v - min(n, v-bound)
	})
}
