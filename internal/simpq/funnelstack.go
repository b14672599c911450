package simpq

import (
	"pq/internal/funnel"
	"pq/internal/sim"
)

// FunnelStack is the combining-funnel stack used as the bin of the
// LinearFunnels and FunnelTree queues: pushes and pops combine into
// homogeneous trees through the funnel layers, reversing trees of equal
// size eliminate (each pop receives one push's item without touching the
// stack), and a tree that exits the funnel applies its whole batch to the
// central stack at once. Emptiness costs a single read of the size word.
//
// The central storage discipline is LIFO by default (the paper's choice:
// simple and it composes with elimination). Section 3.2 suggests a hybrid
// for fairness-sensitive applications — "supports elimination in the
// funnel, but queues items internally in FIFO order" — selected with
// NewFunnelQueue: the funnel protocol is identical, only the central
// Bin's discipline changes.
type FunnelStack struct {
	proto funnel.StackProtocol[*sim.Proc, sim.Addr, uint64, stackLeaf]
	bin   Bin // the central storage

	// Host-side internals counters (no simulated cost).
	stats funnelStackStats
}

// funnelStackStats counts how stack operations retired.
type funnelStackStats struct {
	pushes         int64
	pops           int64
	failedPops     int64 // pops that found the central storage dry
	eliminatedOps  int64 // operations completed entirely by elimination
	centralBatches int64 // lock acquisitions that applied a batch
	centralOps     int64 // operations applied across those batches
}

// Metrics reports the stack's internals: funnel collision counters
// (prefix "funnel"), central-lock wait/hold (prefix "central_lock"), and
// how operations retired.
func (s *FunnelStack) Metrics() Metrics {
	m := Metrics{
		"pushes":          float64(s.stats.pushes),
		"pops":            float64(s.stats.pops),
		"failed_pops":     float64(s.stats.failedPops),
		"eliminated_ops":  float64(s.stats.eliminatedOps),
		"central_batches": float64(s.stats.centralBatches),
		"central_ops":     float64(s.stats.centralOps),
		"dropped":         float64(s.bin.dropped),
	}
	m.add("funnel", s.proto.Leaf.Metrics())
	m.add("central_lock", s.bin.lock.Metrics())
	return m
}

// NewFunnelStack builds a LIFO funnel stack with room for capacity items.
func NewFunnelStack(m *sim.Machine, params FunnelParams, capacity int) *FunnelStack {
	return newFunnelBin(m, params, capacity, false)
}

// NewFunnelQueue builds the hybrid bin of Section 3.2: elimination in the
// funnel, FIFO order in the central storage.
func NewFunnelQueue(m *sim.Machine, params FunnelParams, capacity int) *FunnelStack {
	return newFunnelBin(m, params, capacity, true)
}

func newFunnelBin(m *sim.Machine, params FunnelParams, capacity int, fifo bool) *FunnelStack {
	labels := binLabels{"funnelstack.size", "funnelstack.head", "funnelstack.cells"}
	f := newFunnel(m, params)
	s := &FunnelStack{bin: newBin(m, capacity, fifo, labels)}
	s.proto.Protocol = protocol(stackLeaf{f, s}, params)
	return s
}

// stackLeaf is a FunnelStack's leaf: the funnel's, plus the operands in
// the records' item words, the central Bin and the stack's own stats.
// A pop's item travels in its result word.
type stackLeaf struct {
	*funnelLeaf
	s *FunnelStack
}

func (l stackLeaf) SetItem(p *sim.Proc, r *funnelRec, v uint64)         { p.Write(r.Words+frItem, v) }
func (l stackLeaf) Item(p *sim.Proc, r *funnelRec) uint64               { return p.Read(r.Words + frItem) }
func (l stackLeaf) Carry(_ *sim.Proc, _ *funnelRec, v uint64) uint64    { return v }
func (l stackLeaf) Received(_ *sim.Proc, _ *funnelRec, v uint64) uint64 { return v }

// PushTree stores each member's item, read just before it is stored,
// under one hold of the Bin's lock.
func (l stackLeaf) PushTree(p *sim.Proc, members []*funnelRec) {
	l.s.bin.pushFunc(p, len(members), func(i int) uint64 { return p.Read(members[i].Words + frItem) })
}

func (l stackLeaf) PopOne(p *sim.Proc) (uint64, bool) {
	items := l.s.bin.PopN(p, nil, 1)
	if len(items) == 0 {
		return 0, false
	}
	return items[0], true
}

func (l stackLeaf) PopN(p *sim.Proc, k int) []uint64 { return l.s.bin.PopN(p, nil, k) }

func (l stackLeaf) Count(_ *sim.Proc, e funnel.Event, n int) {
	l.count(e)
	switch e {
	case funnel.Eliminate:
		l.s.stats.eliminatedOps += 2 * int64(n)
	case funnel.Central:
		l.s.stats.centralBatches++
		l.s.stats.centralOps += int64(n)
	}
}

// Empty reports whether the bin currently looks empty (one read, as the
// paper stresses for LinearFunnels' delete-min scan).
func (s *FunnelStack) Empty(p *sim.Proc) bool { return s.bin.Empty(p) }

// Push adds an item to the stack.
func (s *FunnelStack) Push(p *sim.Proc, item uint64) {
	s.stats.pushes++
	s.proto.Run(p, 1, item)
}

// Pop removes an item, or reports ok=false if the stack ran dry (which
// concurrent elimination cannot cause: an eliminated pop always receives
// an item).
func (s *FunnelStack) Pop(p *sim.Proc) (uint64, bool) {
	s.stats.pops++
	v, ok := s.proto.Run(p, -1, 0)
	if !ok {
		s.stats.failedPops++
	}
	return v, ok
}

// PushN adds items directly to the central storage under one lock hold —
// the batch fast path. A batch already amortizes its synchronization, so
// it skips the funnel; keeping batch trees out of the layers also keeps
// every funnel tree unit-sum, which elimination's one-for-one member
// pairing relies on.
func (s *FunnelStack) PushN(p *sim.Proc, items []uint64) {
	if len(items) == 0 {
		return
	}
	s.stats.pushes += int64(len(items))
	s.stats.centralBatches++
	s.stats.centralOps += int64(len(items))
	s.bin.PushN(p, items)
}

// PopN removes up to k items under one lock hold and appends them to
// dst, in the same order k consecutive Pops would deliver them; a short
// result means the central storage ran dry.
func (s *FunnelStack) PopN(p *sim.Proc, dst []uint64, k int) []uint64 {
	if k < 1 {
		return dst
	}
	s.stats.pops += int64(k)
	s.stats.centralBatches++
	s.stats.centralOps += int64(k)
	n0 := len(dst)
	dst = s.bin.PopN(p, dst, k)
	s.stats.failedPops += int64(k - (len(dst) - n0))
	return dst
}
