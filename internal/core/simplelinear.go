package core

import (
	"runtime"

	"pq/internal/funnel"
)

// simpleLinear is Figure 2: an array of bins, one per priority; delete-min
// scans upward from priority zero, testing emptiness with one read before
// paying for a lock. With combining-funnel stacks as bins it is the
// paper's first new algorithm, LinearFunnels: the scan still pays one
// atomic read per empty bin before any funnel traversal.
type simpleLinear[V any] struct {
	bins []binLike[V]
}

// NewSimpleLinear builds the bin-array queue with lock-based bins.
func NewSimpleLinear[V any](cfg Config) Queue[V] {
	return &simpleLinear[V]{bins: newBins[V](cfg.Priorities, cfg.FIFOBins, nil)}
}

// NewLinearFunnels builds the bin-array queue with funnel-stack bins.
// With Config.FIFOBins it uses the Section 3.2 hybrid: elimination in the
// funnel, FIFO order in the central storage.
func NewLinearFunnels[V any](cfg Config) Queue[V] {
	params := funnelParamsFor(cfg)
	return &simpleLinear[V]{bins: newBins[V](cfg.Priorities, cfg.FIFOBins, &params)}
}

func funnelParamsFor(cfg Config) funnel.Params {
	if cfg.FunnelParams != nil {
		return *cfg.FunnelParams
	}
	conc := cfg.Concurrency
	if conc <= 0 {
		conc = runtime.GOMAXPROCS(0)
	}
	return funnel.DefaultParams(conc)
}

func (q *simpleLinear[V]) NumPriorities() int { return len(q.bins) }

func (q *simpleLinear[V]) Insert(pri int, v V) {
	checkPri(pri, len(q.bins))
	q.bins[pri].Push(v)
}

func (q *simpleLinear[V]) DeleteMin() (V, bool) {
	for _, b := range q.bins {
		if b.Empty() {
			continue
		}
		if e, ok := b.Pop(); ok {
			return e, true
		}
	}
	var zero V
	return zero, false
}

// InsertBatch fills each priority's bin with one lock hold (or one
// central stack application) per distinct priority in the batch.
func (q *simpleLinear[V]) InsertBatch(items []Item[V]) {
	checkBatch(items, len(q.bins))
	for _, run := range GroupByPri(items) {
		q.bins[run.Pri].PushN(run.Vals)
	}
}

// DeleteMinBatch runs the delete-min scan once, draining each non-empty
// bin it reaches in one lock hold (or one central application) until k
// items are gathered.
func (q *simpleLinear[V]) DeleteMinBatch(k int) []Item[V] {
	if k <= 0 {
		return nil
	}
	var out []Item[V]
	for i, b := range q.bins {
		if len(out) == k {
			break
		}
		if b.Empty() {
			continue
		}
		for _, v := range b.PopN(k - len(out)) {
			out = append(out, Item[V]{Pri: i, Val: v})
		}
	}
	return out
}
