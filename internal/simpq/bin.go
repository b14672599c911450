package simpq

import "pq/internal/sim"

// Bin is the lock-based bag of Figure 1 of the paper: an MCS-locked array
// holding arbitrary elements, supporting insertion, removal of an
// unspecified element, and a lock-free emptiness test.
type Bin struct {
	lock  *MCSLock
	size  sim.Addr
	elems sim.Addr
	cap   int
}

// NewBin allocates a bin with room for capacity elements.
func NewBin(m *sim.Machine, capacity int) *Bin {
	b := &Bin{
		lock:  NewMCSLock(m),
		size:  m.Alloc(1),
		elems: m.Alloc(capacity),
		cap:   capacity,
	}
	m.Label(b.size, 1, "bin.size")
	m.Label(b.elems, capacity, "bin.elems")
	return b
}

// Metrics reports the bin's lock counters (prefix "lock").
func (b *Bin) Metrics() Metrics {
	m := Metrics{}
	m.add("lock", b.lock.Metrics())
	return m
}

// Insert adds e to the bin. Like the paper's bin-insert, it silently drops
// the element if the bin is full; callers size bins so this cannot happen
// and tests assert it does not. It reports whether the element was stored.
func (b *Bin) Insert(p *sim.Proc, e uint64) bool {
	b.lock.Acquire(p)
	n := p.Read(b.size)
	stored := n < uint64(b.cap)
	if stored {
		p.Write(b.elems+sim.Addr(n), e)
		p.Write(b.size, n+1)
	}
	b.lock.Release(p)
	return stored
}

// InsertN adds all elements under one lock hold — the batch fast path.
// Elements beyond capacity are silently dropped like Insert; it reports
// how many were stored.
func (b *Bin) InsertN(p *sim.Proc, es []uint64) int {
	if len(es) == 0 {
		return 0
	}
	b.lock.Acquire(p)
	n := p.Read(b.size)
	stored := 0
	for _, e := range es {
		if n >= uint64(b.cap) {
			break
		}
		p.Write(b.elems+sim.Addr(n), e)
		n++
		stored++
	}
	p.Write(b.size, n)
	b.lock.Release(p)
	return stored
}

// Empty reports whether the bin currently looks empty; it costs one read
// and takes no lock.
func (b *Bin) Empty(p *sim.Proc) bool {
	return p.Read(b.size) == 0
}

// DeleteN removes and returns up to k elements under one lock hold, in
// the order k consecutive Deletes would return them; a short result means
// the bin ran dry.
func (b *Bin) DeleteN(p *sim.Proc, k int) []uint64 {
	if k < 1 {
		return nil
	}
	b.lock.Acquire(p)
	n := p.Read(b.size)
	avail := uint64(k)
	if avail > n {
		avail = n
	}
	out := make([]uint64, avail)
	for i := uint64(0); i < avail; i++ {
		out[i] = p.Read(b.elems + sim.Addr(n-1-i))
	}
	p.Write(b.size, n-avail)
	b.lock.Release(p)
	return out
}

// Delete removes and returns an unspecified element, or ok=false if the
// bin is empty.
func (b *Bin) Delete(p *sim.Proc) (uint64, bool) {
	b.lock.Acquire(p)
	n := p.Read(b.size)
	if n == 0 {
		b.lock.Release(p)
		return 0, false
	}
	e := p.Read(b.elems + sim.Addr(n-1))
	p.Write(b.size, n-1)
	b.lock.Release(p)
	return e, true
}

// Push, PushN, Pop and PopN are Insert, InsertN, Delete and DeleteN under
// FunnelStack's names, so either can be a queue's bin.
func (b *Bin) Push(p *sim.Proc, e uint64)       { b.Insert(p, e) }
func (b *Bin) PushN(p *sim.Proc, es []uint64)   { b.InsertN(p, es) }
func (b *Bin) Pop(p *sim.Proc) (uint64, bool)   { return b.Delete(p) }
func (b *Bin) PopN(p *sim.Proc, k int) []uint64 { return b.DeleteN(p, k) }

// Counter is the paper's shared counter (Figure 1) implemented with a
// lock, standing in for the "atomically" blocks the paper assumes are
// provided by hardware (e.g. Alewife's full/empty bits) on machines
// without fetch-and-add. It supports fetch-and-increment and bounded
// fetch-and-decrement.
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

// FaI atomically increments the counter and returns the previous value.
func (c *Counter) FaI(p *sim.Proc) uint64 {
	c.lock.Acquire(p)
	old := p.Read(c.val)
	p.Write(c.val, old+1)
	c.lock.Release(p)
	return old
}

// BFaD atomically decrements the counter unless it is at or below bound,
// and returns the previous value (Figure 1's bounded fetch-and-decrement).
func (c *Counter) BFaD(p *sim.Proc, bound uint64) uint64 {
	c.lock.Acquire(p)
	old := p.Read(c.val)
	if old > bound {
		p.Write(c.val, old-1)
	}
	c.lock.Release(p)
	return old
}

// BFaI atomically increments the counter unless it is at or above bound,
// and returns the previous value (the analogous bounded
// fetch-and-increment).
func (c *Counter) BFaI(p *sim.Proc, bound uint64) uint64 {
	c.lock.Acquire(p)
	old := p.Read(c.val)
	if old < bound {
		p.Write(c.val, old+1)
	}
	c.lock.Release(p)
	return old
}

// AddN atomically adds n and returns the previous value — n increments
// for one lock hold.
func (c *Counter) AddN(p *sim.Proc, n uint64) uint64 {
	c.lock.Acquire(p)
	old := p.Read(c.val)
	p.Write(c.val, old+n)
	c.lock.Release(p)
	return old
}

// BSubN atomically subtracts min(n, prev-bound) — n bounded decrements
// for one lock hold — and returns the previous value.
func (c *Counter) BSubN(p *sim.Proc, n, bound uint64) uint64 {
	c.lock.Acquire(p)
	old := p.Read(c.val)
	take := n
	if old < bound+take {
		take = 0
		if old > bound {
			take = old - bound
		}
	}
	if take > 0 {
		p.Write(c.val, old-take)
	}
	c.lock.Release(p)
	return old
}
