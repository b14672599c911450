package simpq

import "pq/internal/sim"

// heap is a sequential binary min-heap on simulated memory: a size word
// and 1-based priority and value arrays of cap slots. Its caller holds
// the lock that guards it: SingleLock's one MCS lock, or a MultiQueue
// sub-heap's test-and-set lock. It mirrors the native core heap, without
// the insertion sequence numbers: equal priorities leave in heap order.
type heap struct {
	size       sim.Addr
	pris, vals sim.Addr
	cap        int
}

func (h heap) pri(p *sim.Proc, i uint64) uint64 { return p.Read(h.pris + sim.Addr(i)) }
func (h heap) val(p *sim.Proc, i uint64) uint64 { return p.Read(h.vals + sim.Addr(i)) }
func (h heap) set(p *sim.Proc, i, pr, v uint64) {
	p.Write(h.pris+sim.Addr(i), pr)
	p.Write(h.vals+sim.Addr(i), v)
}

// push sifts val up from a new last slot. A full heap drops it, like the
// paper's bins, and push reports false.
func (h heap) push(p *sim.Proc, pri int, val uint64) bool {
	n := p.Read(h.size)
	if n >= uint64(h.cap) {
		return false
	}
	n++
	p.Write(h.size, n)
	i, pr := n, uint64(pri)
	for i > 1 {
		parent := i / 2
		ppri := h.pri(p, parent)
		if ppri <= pr {
			break
		}
		h.set(p, i, ppri, h.val(p, parent))
		i = parent
	}
	h.set(p, i, pr, val)
	return true
}

// pop removes the root and restores the heap by sifting the last element
// down. It returns the root and how many elements are left, or ok=false
// if the heap is empty.
func (h heap) pop(p *sim.Proc) (it BatchItem, left uint64, ok bool) {
	n := p.Read(h.size)
	if n == 0 {
		return it, 0, false
	}
	outPri, out := h.pri(p, 1), h.val(p, 1)
	lastPri, lastVal := h.pri(p, n), h.val(p, n)
	n--
	p.Write(h.size, n)
	if n > 0 {
		i := uint64(1)
		for {
			l, r := 2*i, 2*i+1
			if l > n {
				break
			}
			child, cpri := l, h.pri(p, l)
			if r <= n {
				if rp := h.pri(p, r); rp < cpri {
					child, cpri = r, rp
				}
			}
			if cpri >= lastPri {
				break
			}
			h.set(p, i, cpri, h.val(p, child))
			i = child
		}
		h.set(p, i, lastPri, lastVal)
	}
	return BatchItem{Pri: int(outPri), Val: out}, n, true
}
