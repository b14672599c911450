package simpq

import (
	"pq/internal/core"
	"pq/internal/sim"
)

// binLike is what the bin-array and counter-tree queues need of a bin:
// the lock-based Bin of Figure 1, or the combining-funnel FunnelStack
// that LinearFunnels and FunnelTree use in its place.
type binLike interface {
	MetricsSource
	Empty(p *sim.Proc) bool
	Push(p *sim.Proc, e uint64)
	PushN(p *sim.Proc, es []uint64)
	Pop(p *sim.Proc) (uint64, bool)
	PopN(p *sim.Proc, k int) []uint64
}

// newBins builds n bins of capacity maxItems: lock-based Bins when params
// is nil, otherwise funnel stacks (the Section 3.2 hybrid when fifo).
// Each funnel bin sees roughly procs/n of the load (more at the low
// priorities delete-min concentrates on), so its funnel is sized for
// 2·procs/n processors rather than for the whole machine.
func newBins(m *sim.Machine, n, maxItems int, params *FunnelParams, fifo bool) []binLike {
	bins := make([]binLike, n)
	var binParams FunnelParams
	if params != nil {
		binParams = scaledParams(*params, 2*m.Procs()/n)
	}
	for i := range bins {
		if params == nil {
			bins[i] = NewBin(m, maxItems)
		} else {
			bins[i] = newFunnelBin(m, binParams, maxItems, fifo)
		}
	}
	return bins
}

// SimpleLinear is the paper's Figure 2 queue: an array of bins, one per
// priority. Insertion drops the element in its bin; delete-min scans from
// the smallest priority, attempting deletion only on bins that look
// non-empty. With combining-funnel stacks as bins it is the paper's first
// new algorithm, LinearFunnels: the scan still tests emptiness with a
// single read per bin before paying for a funnel traversal.
type SimpleLinear struct {
	bins []binLike

	// Host-side internals counters (no simulated cost).
	scans        int64 // DeleteMin calls
	scannedBins  int64 // bins examined across all scans
	failedScans  int64 // scans that reached the end without an item
	batchInserts int64 // InsertBatch calls
	batchDeletes int64 // DeleteMinBatch calls
}

// NewSimpleLinear builds the queue with npri lock-based bins of capacity
// maxItems.
func NewSimpleLinear(m *sim.Machine, npri, maxItems int) *SimpleLinear {
	return &SimpleLinear{bins: newBins(m, npri, maxItems, nil, false)}
}

// NewLinearFunnels builds LinearFunnels: the queue with npri funnel
// stacks as bins.
func NewLinearFunnels(m *sim.Machine, npri, maxItems int, params FunnelParams) *SimpleLinear {
	return &SimpleLinear{bins: newBins(m, npri, maxItems, &params, false)}
}

// NumPriorities reports the fixed priority range.
func (q *SimpleLinear) NumPriorities() int { return len(q.bins) }

// Metrics reports delete-min scan lengths plus the summed internals of
// all bins (prefix "bin"): lock cycles for lock-based bins — scan length
// is the mechanism behind SimpleLinear's sensitivity to the priority
// range — and the combining and elimination rates behind LinearFunnels'
// scaling.
func (q *SimpleLinear) Metrics() Metrics {
	m := Metrics{
		"scans":         float64(q.scans),
		"scanned_bins":  float64(q.scannedBins),
		"failed_scans":  float64(q.failedScans),
		"batch_inserts": float64(q.batchInserts),
		"batch_deletes": float64(q.batchDeletes),
	}
	if q.scans > 0 {
		m["scan_len_mean"] = float64(q.scannedBins) / float64(q.scans)
	}
	for _, b := range q.bins {
		m.addSum("bin", b.Metrics())
	}
	m.finishFactor("bin.funnel")
	return m
}

// Insert adds val at priority pri.
func (q *SimpleLinear) Insert(p *sim.Proc, pri int, val uint64) {
	q.bins[pri].Push(p, val)
}

// DeleteMin scans bins from the smallest priority and removes an element
// from the first non-empty bin it can.
func (q *SimpleLinear) DeleteMin(p *sim.Proc) (uint64, bool) {
	q.scans++
	for _, b := range q.bins {
		q.scannedBins++
		if b.Empty(p) {
			continue
		}
		if e, ok := b.Pop(p); ok {
			return e, true
		}
	}
	q.failedScans++
	return 0, false
}

// InsertBatch groups the batch by priority and fills each bin with one
// lock hold (or one central stack batch) per distinct priority.
func (q *SimpleLinear) InsertBatch(p *sim.Proc, items []BatchItem) {
	if len(items) == 0 {
		return
	}
	q.batchInserts++
	for _, run := range core.GroupByPri(items) {
		q.bins[run.Pri].PushN(p, run.Vals)
	}
}

// DeleteMinBatch scans bins from the smallest priority, draining each
// non-empty bin under one lock hold (or as one central stack batch) until
// k items are collected.
func (q *SimpleLinear) DeleteMinBatch(p *sim.Proc, k int) []BatchItem {
	if k < 1 {
		return nil
	}
	q.batchDeletes++
	q.scans++
	var out []BatchItem
	for pri, b := range q.bins {
		q.scannedBins++
		if b.Empty(p) {
			continue
		}
		for _, v := range b.PopN(p, k-len(out)) {
			out = append(out, BatchItem{Pri: pri, Val: v})
		}
		if len(out) == k {
			return out
		}
	}
	if len(out) == 0 {
		q.failedScans++
	}
	return out
}

var (
	_ Queue      = (*SimpleLinear)(nil)
	_ BatchQueue = (*SimpleLinear)(nil)
)
