// Package pq provides scalable concurrent bounded-range priority queues
// for Go, reproducing "Scalable Concurrent Priority Queue Algorithms"
// (Shavit & Zemach, PODC 1999).
//
// A bounded-range priority queue supports a fixed set of priorities
// 0..N-1 (smaller is more urgent), the shape found in OS schedulers and
// QoS systems. Seven implementations are provided — the five baselines
// the paper evaluates and its two contributions:
//
//   - SingleLock: a sequential heap under one mutex.
//   - HuntEtAl: the concurrent heap of Hunt et al. (fine-grained node
//     locks, bit-reversed insertions).
//   - SkipList: a bounded-range Pugh skip list with a delete-bin.
//   - SimpleLinear: an array of lock-based bins, scanned on delete-min.
//   - SimpleTree: a binary tree of counters over bins, descended with
//     bounded fetch-and-decrement.
//   - LinearFunnels: SimpleLinear with combining-funnel stacks as bins.
//   - FunnelTree: SimpleTree with combining-funnel counters at the hot
//     top levels and funnel stacks as bins.
//
// SingleLock, HuntEtAl, SkipList and SimpleLinear are linearizable;
// SimpleTree, LinearFunnels and FunnelTree are quiescently consistent:
// overlapping operations may reorder, but between quiescent points the
// queue behaves exactly like a sequential priority queue. Under low
// contention prefer SimpleLinear (few priorities) or SimpleTree (many);
// under heavy multicore contention the funnel-based queues are the
// scalable choice — that trade-off is the paper's central result.
//
// An eighth, opt-in implementation relaxes the semantics themselves:
// MultiQueue (Williams & Sanders) spreads items over many small heaps
// and lets delete-min return an item with up to O(c·concurrency)
// strictly better items still queued, in exchange for near-contention-
// free scaling. It is excluded from Algorithms() and must be selected
// explicitly; RelaxStatsOf reports its measured rank error.
//
// The internal/sim and internal/simpq packages contain a deterministic
// ccNUMA multiprocessor simulator and simulator-hosted versions of the
// same algorithms, used to regenerate the paper's figures (see
// cmd/pqbench and EXPERIMENTS.md).
package pq

import (
	"fmt"

	"pq/internal/core"
	"pq/internal/funnel"
)

// Queue is a bounded-range concurrent priority queue over values of type
// V. Priorities are integers in [0, NumPriorities()); smaller is more
// urgent. All methods are safe for concurrent use.
type Queue[V any] interface {
	// Insert adds v with the given priority. It panics if pri is out of
	// range, like an out-of-range slice index.
	Insert(pri int, v V)
	// DeleteMin removes and returns an element with the smallest
	// priority, or ok=false if the queue appears empty.
	DeleteMin() (v V, ok bool)
	// NumPriorities reports the fixed priority range.
	NumPriorities() int
}

// Item pairs a priority with a value — the unit of batch operations.
type Item[V any] = core.Item[V]

// BatchQueue extends Queue with native batch operations that amortize
// synchronization over many items: one lock hold, skip-list descent,
// funnel traversal or multi-unit counter RMW covers a whole batch
// instead of one per item. Every queue built by New implements it.
type BatchQueue[V any] = core.BatchQueue[V]

// InsertBatch adds every item to q, using its native batch fast path
// when it has one (every queue built by New does) and falling back to
// one Insert per item for external Queue implementations.
func InsertBatch[V any](q Queue[V], items []Item[V]) {
	if bq, ok := q.(BatchQueue[V]); ok {
		bq.InsertBatch(items)
		return
	}
	for _, it := range items {
		q.Insert(it.Pri, it.Val)
	}
}

// DeleteMinBatch removes up to k items from q, using its native batch
// fast path when it has one. Fewer than k items means the queue ran dry
// (or appeared to, under contention) partway through. In the fallback
// path for external Queue implementations, DeleteMin does not report
// priorities, so returned items carry Pri = -1.
func DeleteMinBatch[V any](q Queue[V], k int) []Item[V] {
	if bq, ok := q.(BatchQueue[V]); ok {
		return bq.DeleteMinBatch(k)
	}
	return AppendDeleteMinBatch(nil, q, k)
}

// AppendDeleteMinBatch is DeleteMinBatch appending the items to dst, so
// a caller that recycles dst takes batches from a queue built by New
// without allocating.
func AppendDeleteMinBatch[V any](dst []Item[V], q Queue[V], k int) []Item[V] {
	if bq, ok := q.(BatchQueue[V]); ok {
		return bq.AppendDeleteMinBatch(dst, k)
	}
	for ; k > 0; k-- {
		v, ok := q.DeleteMin()
		if !ok {
			break
		}
		dst = append(dst, Item[V]{Pri: -1, Val: v})
	}
	return dst
}

// Drain removes and returns every item in q in priority order. It
// repeatedly pulls native batches until the queue stays empty. For
// quiescently consistent queues the result is exact only between
// quiescent points: items inserted concurrently with the drain may or
// may not appear. Callers that need the queue unchanged afterwards
// re-insert the items with InsertBatch.
func Drain[V any](q Queue[V]) []Item[V] {
	var out []Item[V]
	for {
		got := DeleteMinBatch(q, 1024)
		if len(got) == 0 {
			return out
		}
		out = append(out, got...)
	}
}

// Algorithm selects a queue implementation.
type Algorithm = core.Algorithm

// The seven algorithms from the paper.
const (
	SingleLock    = core.SingleLock
	HuntEtAl      = core.HuntEtAl
	SkipList      = core.SkipList
	SimpleLinear  = core.SimpleLinear
	SimpleTree    = core.SimpleTree
	LinearFunnels = core.LinearFunnels
	FunnelTree    = core.FunnelTree
)

// MultiQueue is the relaxed MultiQueue of Williams & Sanders: c
// sequential heaps per goroutine, inserts go to a random heap,
// delete-min pops the better of two random heap tops. It is NOT an
// exact priority queue — delete-min may return an item while up to
// O(c·concurrency) strictly better items remain (whp) — and so is
// excluded from Algorithms(); select it explicitly when the caller can
// tolerate reordering in exchange for contention-free scaling.
const MultiQueue = core.MultiQueue

// Algorithms lists every exact implementation in the paper's order.
// Relaxed algorithms are deliberately excluded: code that iterates the
// registry (differential tests, benchmark sweeps) may assume strict
// delete-min order. Use AllAlgorithms to include them.
func Algorithms() []Algorithm {
	out := make([]Algorithm, len(core.Algorithms))
	copy(out, core.Algorithms)
	return out
}

// RelaxedAlgorithms lists the algorithms with relaxed delete-min order.
func RelaxedAlgorithms() []Algorithm {
	out := make([]Algorithm, len(core.RelaxedAlgorithms))
	copy(out, core.RelaxedAlgorithms)
	return out
}

// AllAlgorithms lists every implementation: the paper's seven exact
// queues followed by the relaxed ones.
func AllAlgorithms() []Algorithm {
	return core.All()
}

// IsRelaxed reports whether alg trades exact delete-min order for
// scalability (see MultiQueue).
func IsRelaxed(alg Algorithm) bool {
	return core.IsRelaxed(alg)
}

// ParseAlgorithm resolves a case-insensitive algorithm name; the error
// lists every valid name.
func ParseAlgorithm(name string) (Algorithm, error) {
	alg, err := core.ParseAlgorithm(name)
	if err != nil {
		return "", fmt.Errorf("pq: %w", err)
	}
	return alg, nil
}

// FunnelParams tunes the combining funnels used by LinearFunnels and
// FunnelTree; see the fields of funnel.Params.
type FunnelParams = funnel.Params

// Option customizes queue construction.
type Option func(*core.Config)

// WithConcurrency sets the expected number of contending goroutines,
// which sizes the funnel combining layers. The default is
// runtime.GOMAXPROCS(0).
func WithConcurrency(n int) Option {
	return func(c *core.Config) { c.Concurrency = n }
}

// WithFunnelParams overrides funnel tuning entirely.
func WithFunnelParams(p FunnelParams) Option {
	return func(c *core.Config) { c.FunnelParams = &p }
}

// WithFunnelCutoff sets how many tree levels from the root use funnel
// counters in FunnelTree (the paper uses 4; deeper counters see little
// traffic and use plain atomics).
func WithFunnelCutoff(levels int) Option {
	return func(c *core.Config) { c.FunnelCutoff = levels }
}

// WithFIFOBins makes the queues serve items of equal priority
// first-in-first-out — the fairness trade-off of the paper's Section
// 3.2. SimpleLinear, SimpleTree and SkipList switch to FIFO bins and
// SingleLock's heap breaks ties by insertion order; the funnel-based
// queues use the hybrid the paper suggests there: elimination still
// happens in the funnel, but the central storage is FIFO. MultiQueue
// ties within one sub-heap follow the same order. HuntEtAl is the one
// exception: its concurrent heap orders equal priorities arbitrarily,
// with or without this option.
func WithFIFOBins() Option {
	return func(c *core.Config) { c.FIFOBins = true }
}

// WithMultiQueueC sets the MultiQueue's queues-per-goroutine multiplier
// c: the queue uses about c times WithConcurrency sequential heaps.
// Larger c lowers contention and raises rank error (both scale with
// c·concurrency). The default is 2, the value Williams & Sanders
// recommend.
func WithMultiQueueC(c int) Option {
	return func(cfg *core.Config) { cfg.MultiQueueC = c }
}

// WithMultiQueueRankTracking enables or disables the MultiQueue's exact
// rank-error accounting (see RelaxStatsOf). It is on by default for
// priority ranges up to a few thousand; tracking costs one prefix scan
// of per-priority counters per delete-min.
func WithMultiQueueRankTracking(on bool) Option {
	return func(cfg *core.Config) { cfg.MultiQueueNoRank = !on }
}

// RelaxStats is the measured rank-error accounting of a relaxed queue:
// how many strictly better items were present each time an item was
// popped. See core.RelaxStats for field documentation.
type RelaxStats = core.RelaxStats

// RelaxStatsOf returns q's rank-error statistics when q is a relaxed
// queue built by New (ok=false otherwise). The strict algorithms never
// pop over a better item, so they carry no such accounting.
func RelaxStatsOf[V any](q Queue[V]) (RelaxStats, bool) {
	if rq, ok := q.(core.RelaxedQueue); ok {
		return rq.RelaxStats(), true
	}
	return RelaxStats{}, false
}

// New builds a queue with the given algorithm and priority range.
func New[V any](alg Algorithm, priorities int, opts ...Option) (Queue[V], error) {
	cfg := core.Config{Priorities: priorities}
	for _, o := range opts {
		o(&cfg)
	}
	return core.New[V](alg, cfg)
}

// NewFunnelTree builds the paper's most scalable queue, FunnelTree. It is
// the recommended default for heavily contended queues with more than a
// handful of priorities.
func NewFunnelTree[V any](priorities int, opts ...Option) (Queue[V], error) {
	return New[V](FunnelTree, priorities, opts...)
}

// NewLinearFunnels builds LinearFunnels, the scalable choice for very
// small priority ranges (the paper suggests 4 or fewer).
func NewLinearFunnels[V any](priorities int, opts ...Option) (Queue[V], error) {
	return New[V](LinearFunnels, priorities, opts...)
}

// Counter is a combining-funnel shared counter (fetch-and-increment and
// bounded fetch-and-decrement with elimination) — the paper's Section 3.3
// primitive, exposed because it is useful on its own (semaphore-like
// admission counters, bounded resource pools).
type Counter = funnel.Counter

// NoBound disables one side of a NewCounterBounds range.
const NoBound = funnel.NoBound

// resolveFunnelParams applies opts and returns the funnel tuning they
// select: an explicit WithFunnelParams wins, otherwise defaults sized
// to WithConcurrency (or GOMAXPROCS). All standalone funnel-object
// constructors resolve options through here so the two paths cannot
// drift.
func resolveFunnelParams(opts []Option) funnel.Params {
	cfg := core.Config{Priorities: 1}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.FunnelParams != nil {
		return *cfg.FunnelParams
	}
	conc := cfg.Concurrency
	if conc <= 0 {
		conc = defaultConcurrency()
	}
	return funnel.DefaultParams(conc)
}

// NewCounter builds a funnel counter with the given initial value. If
// bounded, decrements never take the value below bound and reversing
// operations eliminate. With the default (adaptive) funnel parameters an
// operation first tries one compare-and-swap on the central word and
// enters the combining layers only when that conflicts, so an
// uncontended counter costs about as much as an atomic one; a
// WithFunnelParams whose Adaptive is false funnels every operation.
func NewCounter(initial int64, bounded bool, bound int64, opts ...Option) *Counter {
	return funnel.NewCounter(resolveFunnelParams(opts), initial, bounded, bound)
}

// NewCounterBounds builds a funnel counter whose value stays in
// [lower, upper]: fetch-and-decrement never goes below lower and
// fetch-and-increment (Counter.BFaI) never above upper. Use ±NoBound to
// disable a side. An upper-bounded counter is an admission semaphore.
func NewCounterBounds(initial, lower, upper int64, opts ...Option) *Counter {
	return funnel.NewCounterBounds(resolveFunnelParams(opts), initial, lower, upper)
}

// Stack is a combining-funnel stack with elimination, exposed for the
// same reason: it is the paper's scalable bin.
type Stack[V any] = funnel.Stack[V]

// NewStack builds an empty funnel stack. With the default (adaptive)
// funnel parameters a Push or Pop first tries the central lock once
// (TryLock) and enters the combining and elimination layers only when
// the lock is busy; a WithFunnelParams whose Adaptive is false funnels
// every operation.
func NewStack[V any](opts ...Option) *Stack[V] {
	return funnel.NewStack[V](resolveFunnelParams(opts))
}
