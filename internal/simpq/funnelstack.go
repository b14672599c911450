package simpq

import "pq/internal/sim"

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
	f   *funnel
	bin Bin // the central storage

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
	m.add("funnel", s.f.Metrics())
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
	return &FunnelStack{f: newFunnel(m, params), bin: newBin(m, capacity, fifo, labels)}
}

// Empty reports whether the bin currently looks empty (one read, as the
// paper stresses for LinearFunnels' delete-min scan).
func (s *FunnelStack) Empty(p *sim.Proc) bool { return s.bin.Empty(p) }

// Push adds an item to the stack.
func (s *FunnelStack) Push(p *sim.Proc, item uint64) {
	s.stats.pushes++
	my := s.f.recs[p.ID()]
	p.Write(my.addr+frItem, item)
	s.run(p, 1)
}

// Pop removes an item, or reports ok=false if the stack ran dry (which
// concurrent elimination cannot cause: an eliminated pop always receives
// an item).
func (s *FunnelStack) Pop(p *sim.Proc) (uint64, bool) {
	s.stats.pops++
	v, ok := s.run(p, -1)
	if !ok {
		s.stats.failedPops++
	}
	return v, ok
}

// run drives one operation (push s=+1, pop s=-1) through the funnel.
func (s *FunnelStack) run(p *sim.Proc, dir int64) (uint64, bool) {
	my := s.f.begin(p, dir)
	mySum := dir
	d := 0
	for {
		var (
			outcome collideOutcome
			q       *funnelRec
		)
		outcome, q, d, mySum = s.f.collide(p, my, mySum, true, d)
		switch outcome {
		case outCaptured:
			// The root (or eliminating peer) writes results for the whole
			// flattened tree; nothing further to distribute.
			_, fail, v := awaitResult(p, my)
			my.adapt(s.f.params.Adaptive)
			return v, !fail

		case outEliminated:
			s.stats.eliminatedOps += 2 * int64(len(my.members))
			return s.eliminate(p, my, q, dir)

		case outIncompatible:
			// Stack trees are always unit-sum (PushN/PopN bypass the
			// funnel), so reversing trees at one layer have equal size and
			// cancel exactly; this outcome cannot arise.
			panic("simpq: incompatible funnel-stack trees")

		case outExit:
			if !p.CAS(my.addr+frLocation, locCode(d), 0) {
				_, fail, v := awaitResult(p, my)
				my.adapt(s.f.params.Adaptive)
				return v, !fail
			}
			return s.applyCentral(p, my, dir)
		}
	}
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

// PopN removes up to k items under one lock hold, in the same order k
// consecutive Pops would deliver them; a short result means the central
// storage ran dry.
func (s *FunnelStack) PopN(p *sim.Proc, k int) []uint64 {
	if k < 1 {
		return nil
	}
	s.stats.pops += int64(k)
	s.stats.centralBatches++
	s.stats.centralOps += int64(k)
	items := s.bin.PopN(p, k)
	s.stats.failedPops += int64(k - len(items))
	return items
}

// eliminate pairs the members of two equal-size reversing trees: the i-th
// pop receives the i-th push's item; no one touches the central stack.
// The captured root q's result is written last: q is members[0] of its
// tree, and delivering its result frees it to start a new operation that
// rewrites the members list this loop still reads.
func (s *FunnelStack) eliminate(p *sim.Proc, my, q *funnelRec, dir int64) (uint64, bool) {
	pushTree, popTree := my, q
	if dir < 0 {
		pushTree, popTree = q, my
	}
	var ownVal, qResult uint64
	for i := range my.members {
		pushRec, popRec := pushTree.members[i], popTree.members[i]
		item := p.Read(pushRec.addr + frItem)
		switch popRec {
		case my:
			ownVal = item
		case q:
			qResult = encodeResult(true, false, item)
		default:
			p.Write(popRec.addr+frResult, encodeResult(true, false, item))
		}
		if pushRec != my && pushRec != q {
			p.Write(pushRec.addr+frResult, encodeResult(true, false, 0))
		} else if pushRec == q {
			qResult = encodeResult(true, false, 0)
		}
	}
	p.Write(q.addr+frResult, qResult)
	my.adapt(s.f.params.Adaptive)
	return ownVal, true
}

// applyCentral applies the whole homogeneous tree to the central Bin
// under one hold of its lock and hands out results to every member.
func (s *FunnelStack) applyCentral(p *sim.Proc, my *funnelRec, dir int64) (uint64, bool) {
	k := len(my.members)
	s.stats.centralBatches++
	s.stats.centralOps += int64(k)
	if dir > 0 { // k pushes: each member's item is read as it is stored
		s.bin.pushFunc(p, k, func(i int) uint64 { return p.Read(my.members[i].addr + frItem) })
		for _, mem := range my.members[1:] {
			p.Write(mem.addr+frResult, encodeResult(false, false, 0))
		}
		my.adapt(s.f.params.Adaptive)
		return 0, true
	}

	items := s.bin.PopN(p, k)
	var ownVal uint64
	ownOK := true
	for i, mem := range my.members {
		var res uint64
		if i < len(items) {
			res = encodeResult(false, false, items[i])
		} else {
			res = encodeResult(false, true, 0)
		}
		if mem == my {
			if i < len(items) {
				ownVal = items[i]
			} else {
				ownOK = false
			}
			continue
		}
		p.Write(mem.addr+frResult, res)
	}
	my.adapt(s.f.params.Adaptive)
	return ownVal, ownOK
}
