package core

import (
	"runtime"

	"pq/internal/funnel"
)

// BinArray is Figure 2, written once for both twins: an array of bins,
// one per priority; delete-min scans upward from priority zero, testing
// emptiness with one read before paying for a lock. With combining-funnel
// stacks as bins it is the paper's first new algorithm, LinearFunnels:
// the scan still pays one read per empty bin before any funnel
// traversal. C is the per-operation context (see Bin).
type BinArray[C, V any] struct {
	Bins  []Bin[C, V]
	Tally *Tally        // set by the simulated twin
	bufs  *batchPool[V] // nil on the simulated twin
}

// NumPriorities reports the fixed priority range.
func (q *BinArray[C, V]) NumPriorities() int { return len(q.Bins) }

// Insert drops v in its priority's bin.
func (q *BinArray[C, V]) Insert(c C, pri int, v V) {
	checkPri(pri, len(q.Bins))
	q.Bins[pri].Push(c, v)
}

// DeleteMin scans bins from the smallest priority and removes an element
// from the first non-empty bin it can.
func (q *BinArray[C, V]) DeleteMin(c C) (V, bool) {
	for i, b := range q.Bins {
		if b.Empty(c) {
			continue
		}
		if e, ok := b.Pop(c); ok {
			q.Tally.scan(i+1, false)
			return e, true
		}
	}
	q.Tally.scan(len(q.Bins), true)
	var zero V
	return zero, false
}

// InsertBatch fills each priority's bin with one lock hold (or one
// central stack application) per distinct priority in the batch.
func (q *BinArray[C, V]) InsertBatch(c C, items []Item[V]) {
	checkBatch(items, len(q.Bins))
	if len(items) == 0 {
		return
	}
	q.Tally.add(TallyBatchInserts, 1)
	b := q.bufs.get()
	for _, run := range b.GroupByPri(items) {
		q.Bins[run.Pri].PushN(c, run.Vals)
	}
	q.bufs.put(b)
}

// DeleteMinBatch is AppendDeleteMinBatch to a new slice.
func (q *BinArray[C, V]) DeleteMinBatch(c C, k int) []Item[V] {
	return q.AppendDeleteMinBatch(c, nil, k)
}

// AppendDeleteMinBatch runs the delete-min scan once, draining each
// non-empty bin it reaches in one lock hold (or one central application)
// until k items are appended to dst.
func (q *BinArray[C, V]) AppendDeleteMinBatch(c C, dst []Item[V], k int) []Item[V] {
	if k <= 0 {
		return dst
	}
	q.Tally.add(TallyBatchDeletes, 1)
	b := q.bufs.get()
	defer q.bufs.put(b)
	want := len(dst) + k
	for pri, bin := range q.Bins {
		if bin.Empty(c) {
			continue
		}
		b.popped = bin.PopN(c, b.popped[:0], want-len(dst))
		for _, v := range b.popped {
			dst = append(dst, Item[V]{Pri: pri, Val: v})
		}
		clear(b.popped)
		if len(dst) == want {
			q.Tally.scan(pri+1, false)
			return dst
		}
	}
	q.Tally.scan(len(q.Bins), len(dst) == want-k)
	return dst
}

// simpleLinear is the native bin-array queue.
type simpleLinear[V any] struct{ a BinArray[struct{}, V] }

// NewSimpleLinear builds the bin-array queue with lock-based bins.
func NewSimpleLinear[V any](cfg Config) Queue[V] {
	return &simpleLinear[V]{BinArray[struct{}, V]{Bins: newBins[V](cfg.Priorities, cfg.FIFOBins, nil), bufs: new(batchPool[V])}}
}

// NewLinearFunnels builds the bin-array queue with funnel-stack bins.
// With Config.FIFOBins it uses the Section 3.2 hybrid: elimination in the
// funnel, FIFO order in the central storage.
func NewLinearFunnels[V any](cfg Config) Queue[V] {
	params := funnelParamsFor(cfg)
	return &simpleLinear[V]{BinArray[struct{}, V]{Bins: newBins[V](cfg.Priorities, cfg.FIFOBins, &params), bufs: new(batchPool[V])}}
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

func (q *simpleLinear[V]) NumPriorities() int             { return q.a.NumPriorities() }
func (q *simpleLinear[V]) Insert(pri int, v V)            { q.a.Insert(struct{}{}, pri, v) }
func (q *simpleLinear[V]) DeleteMin() (V, bool)           { return q.a.DeleteMin(struct{}{}) }
func (q *simpleLinear[V]) InsertBatch(items []Item[V])    { q.a.InsertBatch(struct{}{}, items) }
func (q *simpleLinear[V]) DeleteMinBatch(k int) []Item[V] { return q.a.DeleteMinBatch(struct{}{}, k) }
func (q *simpleLinear[V]) AppendDeleteMinBatch(dst []Item[V], k int) []Item[V] {
	return q.a.AppendDeleteMinBatch(struct{}{}, dst, k)
}
