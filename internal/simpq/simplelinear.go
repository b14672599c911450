package simpq

import (
	"pq/internal/core"
	"pq/internal/sim"
)

// newBins builds n bins of capacity maxItems: lock-based Bins when params
// is nil, otherwise funnel stacks (the Section 3.2 hybrid when fifo).
// Each funnel bin sees roughly procs/n of the load (more at the low
// priorities delete-min concentrates on), so its funnel is sized for
// 2·procs/n processors rather than for the whole machine.
func newBins(m *sim.Machine, n, maxItems int, params *FunnelParams, fifo bool) []core.Bin[*sim.Proc, uint64] {
	bins := make([]core.Bin[*sim.Proc, uint64], n)
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

// SimpleLinear is the paper's Figure 2 queue on the simulated machine,
// core.BinArray over simulated bins: lock-based Bins, or funnel stacks
// for LinearFunnels. Its tally counts the scans host-side, at no
// simulated cost.
type SimpleLinear struct {
	core.BinArray[*sim.Proc, uint64]
}

// NewSimpleLinear builds the queue with npri lock-based bins of capacity
// maxItems.
func NewSimpleLinear(m *sim.Machine, npri, maxItems int) *SimpleLinear {
	return newLinear(newBins(m, npri, maxItems, nil, false))
}

// NewLinearFunnels builds LinearFunnels: the queue with npri funnel
// stacks as bins.
func NewLinearFunnels(m *sim.Machine, npri, maxItems int, params FunnelParams) *SimpleLinear {
	return newLinear(newBins(m, npri, maxItems, &params, false))
}

func newLinear(bins []core.Bin[*sim.Proc, uint64]) *SimpleLinear {
	return &SimpleLinear{core.BinArray[*sim.Proc, uint64]{Bins: bins, Tally: new(core.Tally)}}
}

// Metrics reports delete-min scan lengths plus the summed internals of
// all bins (prefix "bin"): lock cycles for lock-based bins — scan length
// is the mechanism behind SimpleLinear's sensitivity to the priority
// range — and the combining and elimination rates behind LinearFunnels'
// scaling.
func (q *SimpleLinear) Metrics() Metrics {
	t := q.Tally
	m := Metrics{
		"scans":         float64(t[core.TallyScans]),
		"scanned_bins":  float64(t[core.TallyScannedBins]),
		"failed_scans":  float64(t[core.TallyFailedScans]),
		"batch_inserts": float64(t[core.TallyBatchInserts]),
		"batch_deletes": float64(t[core.TallyBatchDeletes]),
	}
	if scans := t[core.TallyScans]; scans > 0 {
		m["scan_len_mean"] = float64(t[core.TallyScannedBins]) / float64(scans)
	}
	addBins(m, q.Bins)
	return m
}

// addBins sums the internals of bins into m under the prefix "bin".
func addBins(m Metrics, bins []core.Bin[*sim.Proc, uint64]) {
	for _, b := range bins {
		m.addSum("bin", b.(MetricsSource).Metrics())
	}
	m.finishFactor("bin.funnel")
}

var (
	_ Queue      = (*SimpleLinear)(nil)
	_ BatchQueue = (*SimpleLinear)(nil)
)
