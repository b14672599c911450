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
// registered separately (core.RelaxedAlgorithms) and never selected by
// default.
//
// Each queue is the simulated twin of a native one in internal/core. The
// bin arrays, counter trees and the MultiQueue run core's operation code
// (core.BinArray, core.CounterTree, core.TwoChoice) with *sim.Proc as the
// context; this package supplies their leaves (Bin, Counter,
// FunnelStack, FunnelCounter, the TAS-locked heaps) and constructors,
// whose allocation order fixes every simulated address. The word-level
// queues (SingleLock, HuntEtAl, SkipList) are written here. The twins
// also share core's vocabulary: Algorithm and the AlgX names are aliases
// of core's registry, BatchItem is core.Item, batches are grouped by
// core.Batch.GroupByPri, and the MultiQueue's rank-error distribution is a
// core.RelaxStats.
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
	"pq/internal/core"
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

// Algorithm names a queue implementation. The registry — which
// algorithms exist, which are relaxed, how names parse — is core's
// (core.Algorithms, core.All, core.IsRelaxed, core.ParseAlgorithm); the
// simulated twin of each is built by Build.
type Algorithm = core.Algorithm

// The algorithms evaluated by the paper, and the relaxed MultiQueue
// (Williams & Sanders), which is not in core.Algorithms: relaxed
// delete-min must be requested explicitly.
const (
	AlgSingleLock    = core.SingleLock
	AlgHuntEtAl      = core.HuntEtAl
	AlgSkipList      = core.SkipList
	AlgSimpleLinear  = core.SimpleLinear
	AlgSimpleTree    = core.SimpleTree
	AlgLinearFunnels = core.LinearFunnels
	AlgFunnelTree    = core.FunnelTree
	AlgMultiQueue    = core.MultiQueue
)

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
