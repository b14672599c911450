// Package core implements, natively on goroutines and atomics, the seven
// bounded-range concurrent priority queues the paper evaluates: the
// SingleLock and Hunt-et-al heaps, the skip-list queue, the simple
// bin-array and counter-tree queues, and the paper's combining-funnel
// queues LinearFunnels and FunnelTree. Each funnel queue is its simple
// counterpart with funnel parts chosen at construction: SimpleLinear and
// LinearFunnels are one bin-array type (lock bins or funnel stacks),
// SimpleTree and FunnelTree one counter-tree type (atomic counters
// throughout, or funnel counters in the top levels, and lock bins or
// funnel stacks).
//
// Every queue also has a simulated twin in internal/simpq. Above the word
// level the twins run one copy of the operation code, written here
// generic over a per-operation context C (struct{} natively, *sim.Proc on
// the simulator): BinArray, CounterTree and TwoChoice (the MultiQueue's
// two-choice loop), over the leaf interfaces Bin, Counter and HeapSet
// that each twin implements, with simulated tallies through a Tally that
// is nil natively. The twins also share the registry (Algorithm,
// Algorithms, All, IsRelaxed, ParseAlgorithm), the stable batch grouping
// (Batch.GroupByPri), a counter-tree batch insert's per-node increments
// (Batch.TreeIncrements) and the rank-error distribution of a relaxed
// queue (RelaxStats).
package core

import (
	"fmt"
	"math/bits"
	"strings"

	"pq/internal/funnel"
)

// Queue is a bounded-range priority queue over values of type V:
// priorities are integers in [0, NumPriorities()), smaller is more
// urgent.
type Queue[V any] interface {
	// Insert adds v with the given priority. It panics if pri is out of
	// range (a programming error, like an out-of-range slice index).
	Insert(pri int, v V)
	// DeleteMin removes and returns an element with the smallest
	// priority, or ok=false if the queue appears empty.
	DeleteMin() (v V, ok bool)
	// NumPriorities reports the fixed priority range.
	NumPriorities() int
}

// Algorithm names a queue implementation.
type Algorithm string

// The seven algorithms from the paper.
const (
	SingleLock    Algorithm = "SingleLock"
	HuntEtAl      Algorithm = "HuntEtAl"
	SkipList      Algorithm = "SkipList"
	SimpleLinear  Algorithm = "SimpleLinear"
	SimpleTree    Algorithm = "SimpleTree"
	LinearFunnels Algorithm = "LinearFunnels"
	FunnelTree    Algorithm = "FunnelTree"
)

// MultiQueue is the relaxed queue of Williams & Sanders ("Engineering
// MultiQueues"): c·p sequential heaps, insert into a random heap,
// delete-min pops the better of two random tops. It is not in
// Algorithms: delete-min may overtake better items (bounded expected
// rank error), so callers must opt in explicitly.
const MultiQueue Algorithm = "MultiQueue"

// Algorithms lists the paper's implementations in its order. All of
// them are strict or quiescently consistent; relaxed algorithms are
// listed separately in RelaxedAlgorithms and never selected by default.
var Algorithms = []Algorithm{
	SingleLock, HuntEtAl, SkipList, SimpleLinear, SimpleTree, LinearFunnels, FunnelTree,
}

// RelaxedAlgorithms lists the implementations whose DeleteMin is only
// approximately smallest-first.
var RelaxedAlgorithms = []Algorithm{MultiQueue}

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
// relaxed) to its canonical spelling, so callers can compare against the
// constants. The error lists every valid name.
func ParseAlgorithm(s string) (Algorithm, error) {
	all := All()
	for _, a := range all {
		if strings.EqualFold(s, string(a)) {
			return a, nil
		}
	}
	names := make([]string, len(all))
	for i, a := range all {
		names[i] = string(a)
	}
	return "", fmt.Errorf("unknown algorithm %q (valid: %s)", s, strings.Join(names, ", "))
}

// Config carries construction options shared by all queues.
type Config struct {
	// Priorities is the fixed priority range N; priorities are 0..N-1.
	Priorities int
	// Concurrency is the expected number of contending goroutines; it
	// sizes funnel layers. Zero means runtime.GOMAXPROCS(0).
	Concurrency int
	// FunnelParams overrides the funnel tuning for the funnel-based
	// queues; nil selects funnel.DefaultParams(Concurrency).
	FunnelParams *funnel.Params
	// FunnelCutoff is how many tree levels from the root use funnel
	// counters in FunnelTree; zero selects the paper's default of 4.
	FunnelCutoff int
	// FIFOBins selects first-in-first-out delivery for items of equal
	// priority — the fairness alternative of the paper's Section 3.2.
	// SimpleLinear, SimpleTree and SkipList use FIFO bags; LinearFunnels
	// and FunnelTree use the hybrid funnel bin (elimination in the
	// funnel, FIFO central storage); SingleLock's heap, and MultiQueue's
	// within one sub-heap, break ties by insertion order. HuntEtAl
	// ignores it: its concurrent heap orders equal priorities
	// arbitrarily.
	FIFOBins bool
	// MultiQueueC is the MultiQueue over-provisioning factor: the queue
	// keeps C × Concurrency sub-heaps. Zero selects 2, the Williams &
	// Sanders default.
	MultiQueueC int
	// MultiQueueNoRank disables MultiQueue's rank-error accounting
	// (normally on whenever Priorities is small enough to track), for
	// benchmarking the raw queue.
	MultiQueueNoRank bool
}

// New builds the named queue.
func New[V any](alg Algorithm, cfg Config) (Queue[V], error) {
	if cfg.Priorities < 1 {
		return nil, fmt.Errorf("core: Priorities must be >= 1, got %d", cfg.Priorities)
	}
	switch alg {
	case SingleLock:
		return NewSingleLock[V](cfg), nil
	case HuntEtAl:
		return NewHunt[V](cfg), nil
	case SkipList:
		return NewSkipList[V](cfg), nil
	case SimpleLinear:
		return NewSimpleLinear[V](cfg), nil
	case SimpleTree:
		return NewSimpleTree[V](cfg), nil
	case LinearFunnels:
		return NewLinearFunnels[V](cfg), nil
	case FunnelTree:
		return NewFunnelTree[V](cfg), nil
	case MultiQueue:
		return NewMultiQueue[V](cfg), nil
	default:
		return nil, fmt.Errorf("core: unknown algorithm %q", alg)
	}
}

// Tally counts the steps of a BinArray, CounterTree or TwoChoice
// host-side, for the simulated twin's metrics. The native queues leave
// it nil, and a nil Tally counts nothing.
type Tally [numTallyKeys]int64

// TallyKey names one count of a Tally.
type TallyKey int

const (
	TallyScans        TallyKey = iota // BinArray delete-min scans, single and batched
	TallyScannedBins                  // bins those scans examined
	TallyFailedScans                  // scans that found nothing
	TallyDescents                     // CounterTree delete-min descents, single and batched
	TallyTraversals                   // counters those descents decremented
	TallyRightTurns                   // zero counters that turned a descent right
	TallyIncrements                   // counter increments made by inserts
	TallyEmptyProbes                  // TwoChoice locked candidates, or whole scans, that yielded nothing
	TallyFullScans                    // sweeps after two empty tops
	TallyBatchInserts                 // InsertBatch calls
	TallyBatchDeletes                 // DeleteMinBatch calls
	numTallyKeys
)

func (t *Tally) add(k TallyKey, n int64) {
	if t != nil {
		t[k] += n
	}
}

// scan counts one bin-array scan that examined bins bins.
func (t *Tally) scan(bins int, failed bool) {
	if t != nil {
		t[TallyScans]++
		t[TallyScannedBins] += int64(bins)
		if failed {
			t[TallyFailedScans]++
		}
	}
}

// descent counts one descent of a tree over nleaves leaves to leaf: it
// decremented one counter per level and went right at every set bit of
// the leaf's index.
func (t *Tally) descent(nleaves, leaf int) {
	if t != nil {
		t[TallyDescents]++
		t[TallyTraversals] += int64(TreeLevel(nleaves))
		t[TallyRightTurns] += int64(bits.OnesCount(uint(leaf)))
	}
}

// ascent counts one insert's ascent from leaf pri of a tree over nleaves
// leaves: it incremented a counter at every level where pri's bit is
// clear.
func (t *Tally) ascent(nleaves, pri int) {
	if t != nil {
		t[TallyIncrements] += int64(TreeLevel(nleaves) - bits.OnesCount(uint(pri)))
	}
}

func checkPri(pri, n int) {
	if pri < 0 || pri >= n {
		panicPri(pri, n)
	}
}

// panicPri is checkPri's slow path, kept out of line so that checkPri
// inlines cheaply.
//
//go:noinline
func panicPri(pri, n int) {
	panic(fmt.Sprintf("core: priority %d out of range [0,%d)", pri, n))
}

// CeilPow2 returns the smallest power of two >= n (and at least 1).
func CeilPow2(n int) int {
	p := 1
	for p < n {
		p *= 2
	}
	return p
}
