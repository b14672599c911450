// Package simpq implements, on top of the sim machine, every priority
// queue the paper evaluates plus the shared-memory substrates they need:
// MCS queue locks, test-and-set locks, lock-based bins and counters,
// concurrent heaps (single-lock and Hunt et al.), a bounded-range skip
// list, and combining funnels with the paper's novel bounded
// fetch-and-decrement and elimination. Each of the paper's new queues is
// its simple counterpart with funnel parts chosen at construction:
// SimpleLinear and LinearFunnels are one bin-array type (lock bins or
// funnel stacks), SimpleTree and FunnelTree one counter-tree type (lock
// counters throughout, or funnel counters in the top levels, and lock
// bins or funnel stacks). The relaxed MultiQueue of
// Williams & Sanders rides along as a post-paper comparison point; it is
// registered separately (RelaxedAlgorithms) and never selected by
// default.
//
// The paper's benchmark runs through one per-processor loop
// (workload.go); DriveWorkload, SojournWorkload and ChaosWorkload differ
// only in the recorder they hand it — what an insert stamps and what each
// operation records.
//
// Values stored in queues and stacks must fit in 61 bits; the top bits of
// a simulated word are used for result/state encoding in the funnel
// protocol.
package simpq

import (
	"strings"

	"pq/internal/sim"
)

// MaxValue is the largest value storable in a queue on the simulator.
const MaxValue = 1<<61 - 1

// Queue is a bounded-range priority queue executing on simulated
// processors. Implementations are constructed against a *sim.Machine
// before Run and used by the per-processor programs during Run.
type Queue interface {
	// Insert adds val with priority pri in [0, NumPriorities).
	Insert(p *sim.Proc, pri int, val uint64)
	// DeleteMin removes and returns an element with the smallest priority,
	// or ok=false if the queue appears empty.
	DeleteMin(p *sim.Proc) (val uint64, ok bool)
	// NumPriorities reports the fixed priority range.
	NumPriorities() int
}

// Algorithm names the seven implementations under test.
type Algorithm string

// The algorithms evaluated by the paper.
const (
	AlgSingleLock    Algorithm = "SingleLock"
	AlgHuntEtAl      Algorithm = "HuntEtAl"
	AlgSkipList      Algorithm = "SkipList"
	AlgSimpleLinear  Algorithm = "SimpleLinear"
	AlgSimpleTree    Algorithm = "SimpleTree"
	AlgLinearFunnels Algorithm = "LinearFunnels"
	AlgFunnelTree    Algorithm = "FunnelTree"
)

// AlgMultiQueue is the relaxed MultiQueue (Williams & Sanders); see
// MultiQueue. It is not part of Algorithms — relaxed delete-min must be
// requested explicitly.
const AlgMultiQueue Algorithm = "MultiQueue"

// Algorithms lists the paper's implementations in its presentation
// order; all are strict or quiescently consistent.
var Algorithms = []Algorithm{
	AlgSingleLock, AlgHuntEtAl, AlgSkipList,
	AlgSimpleLinear, AlgSimpleTree, AlgLinearFunnels, AlgFunnelTree,
}

// RelaxedAlgorithms lists the implementations whose DeleteMin is only
// approximately smallest-first.
var RelaxedAlgorithms = []Algorithm{AlgMultiQueue}

// All lists every implementation: the paper's seven, then the relaxed
// extensions.
func All() []Algorithm {
	out := make([]Algorithm, 0, len(Algorithms)+len(RelaxedAlgorithms))
	out = append(out, Algorithms...)
	return append(out, RelaxedAlgorithms...)
}

// IsRelaxed reports whether alg trades exact delete-min for throughput.
func IsRelaxed(alg Algorithm) bool {
	for _, r := range RelaxedAlgorithms {
		if r == alg {
			return true
		}
	}
	return false
}

// ParseAlgorithm resolves a case-insensitive algorithm name (strict or
// relaxed) to its canonical spelling.
func ParseAlgorithm(s string) (Algorithm, bool) {
	for _, a := range All() {
		if strings.EqualFold(s, string(a)) {
			return a, true
		}
	}
	return "", false
}

// Build constructs the named queue on machine m with npri priorities and
// capacity for at most maxItems concurrently queued elements.
func Build(alg Algorithm, m *sim.Machine, npri, maxItems int) Queue {
	switch alg {
	case AlgSingleLock:
		return NewSingleLock(m, npri, maxItems)
	case AlgHuntEtAl:
		return NewHunt(m, npri, maxItems)
	case AlgSkipList:
		return NewSkipList(m, npri, maxItems)
	case AlgSimpleLinear:
		return NewSimpleLinear(m, npri, maxItems)
	case AlgSimpleTree:
		return NewSimpleTree(m, npri, maxItems)
	case AlgLinearFunnels:
		return NewLinearFunnels(m, npri, maxItems, DefaultFunnelParams(m.Procs()))
	case AlgFunnelTree:
		return NewFunnelTree(m, npri, maxItems, DefaultFunnelParams(m.Procs()))
	case AlgMultiQueue:
		return NewMultiQueue(m, npri, maxItems, 2)
	default:
		panic("simpq: unknown algorithm " + string(alg))
	}
}
