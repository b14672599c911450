package simpq

import (
	"pq/internal/core"
	"pq/internal/sim"
)

// DefaultFunnelCutoff is core's: the number of tree levels (from the
// root) whose counters use combining funnels in FunnelTree; deeper
// counters are lock-based here.
const DefaultFunnelCutoff = core.DefaultFunnelCutoff

// lockCounter and funnelCounter put a tree node's counter in the
// core.Counter seam: the lock-based Counter (bound 0) in general, a
// bounded FunnelCounter in the top cutoff levels of a FunnelTree.
type (
	lockCounter   struct{ c *Counter }
	funnelCounter struct{ f *FunnelCounter }
)

func (t lockCounter) FaI(p *sim.Proc) int64           { return int64(t.c.FaI(p)) }
func (t lockCounter) BFaD(p *sim.Proc) int64          { return int64(t.c.BFaD(p, 0)) }
func (t lockCounter) AddN(p *sim.Proc, n int64) int64 { return int64(t.c.AddN(p, uint64(n))) }
func (t lockCounter) SubN(p *sim.Proc, n int64) int64 { return int64(t.c.BSubN(p, uint64(n), 0)) }
func (t lockCounter) Metrics() Metrics                { return t.c.Metrics() }

func (t funnelCounter) FaI(p *sim.Proc) int64           { return int64(t.f.FaI(p)) }
func (t funnelCounter) BFaD(p *sim.Proc) int64          { return int64(t.f.BFaD(p)) }
func (t funnelCounter) AddN(p *sim.Proc, n int64) int64 { return int64(t.f.AddN(p, n)) }
func (t funnelCounter) SubN(p *sim.Proc, n int64) int64 { return int64(t.f.BSubN(p, n)) }
func (t funnelCounter) Metrics() Metrics                { return t.f.Metrics() }

// SimpleTree is the paper's Figure 3 queue on the simulated machine,
// core.CounterTree over simulated counters and bins: lock-based counters
// and Bins, or, for FunnelTree, combining-funnel counters in the hottest
// (top) levels and funnel stacks as leaf bins. Its tally counts the
// walks host-side, at no simulated cost.
type SimpleTree struct {
	core.CounterTree[*sim.Proc, uint64]
}

// NewSimpleTree builds the tree queue with npri priorities, lock-based
// counters and lock-based bins of capacity maxItems.
func NewSimpleTree(m *sim.Machine, npri, maxItems int) *SimpleTree {
	return newTree(m, npri, maxItems, nil, 0, false)
}

// NewFunnelTree builds FunnelTree with the default funnel cut-off.
func NewFunnelTree(m *sim.Machine, npri, maxItems int, params FunnelParams) *SimpleTree {
	return newTree(m, npri, maxItems, &params, DefaultFunnelCutoff, false)
}

// NewFunnelTreeCutoff builds FunnelTree using funnel counters for the
// top cutoff levels and lock-based counters below — the ablation knob for
// the paper's Section 3.2 cut-off decision. cutoff <= 0 uses lock-based
// counters everywhere; a large cutoff uses funnels everywhere.
func NewFunnelTreeCutoff(m *sim.Machine, npri, maxItems int, params FunnelParams, cutoff int) *SimpleTree {
	return newTree(m, npri, maxItems, &params, cutoff, false)
}

// NewFunnelTreeDiscipline additionally selects the leaf-bin discipline:
// LIFO funnel stacks (false, the paper's default) or the Section 3.2
// hybrid FIFO bins with funnel elimination (true).
func NewFunnelTreeDiscipline(m *sim.Machine, npri, maxItems int, params FunnelParams, cutoff int, fifo bool) *SimpleTree {
	return newTree(m, npri, maxItems, &params, cutoff, fifo)
}

// newTree builds the tree: lock-based counters and bins when params is
// nil; otherwise funnel counters in the top cutoff levels and funnel
// stacks as bins. Counters 1…nl−1 are allocated before bins 0…nl−1; the
// order fixes every simulated address that contention profiles and
// traces report.
func newTree(m *sim.Machine, npri, maxItems int, params *FunnelParams, cutoff int, fifo bool) *SimpleTree {
	nl := core.CeilPow2(npri)
	counters := make([]core.Counter[*sim.Proc], nl)
	for i := 1; i < nl; i++ {
		if level := core.TreeLevel(i); level < cutoff {
			// A node at level l sees roughly procs/2^l of the traffic;
			// size its funnel for that, which is the static analogue of
			// the paper's observation that deeper funnels shrink on their
			// own.
			nodeParams := scaledParams(*params, m.Procs()>>uint(level))
			counters[i] = funnelCounter{NewFunnelCounter(m, nodeParams, true, 0)}
		} else {
			counters[i] = lockCounter{NewCounter(m)}
		}
	}
	return &SimpleTree{core.CounterTree[*sim.Proc, uint64]{
		NPri:     npri,
		Counters: counters,
		Bins:     newBins(m, nl, maxItems, params, fifo),
		Tally:    new(core.Tally),
	}}
}

// scaledParams returns params resized for the given expected traffic,
// preserving explicit non-default tunings only in shape (attempts, spin,
// adaptivity).
func scaledParams(base FunnelParams, traffic int) FunnelParams {
	if traffic < 1 {
		traffic = 1
	}
	p := DefaultFunnelParams(traffic)
	p.Attempts = base.Attempts
	p.Adaptive = base.Adaptive
	for l := range p.Spin {
		if l < len(base.Spin) {
			p.Spin[l] = base.Spin[l]
		}
	}
	return p
}

// Metrics reports counter-traversal counts plus the summed internals of
// all counters (prefix "counter": "counter.lock" for lock-based ones,
// "counter.funnel" and the retirement counts for funnel ones) and bins
// (prefix "bin") — root-counter serialization is the mechanism the funnel
// counters remove, and their combining/elimination rates show how.
func (q *SimpleTree) Metrics() Metrics {
	t := q.Tally
	m := Metrics{
		"descents":      float64(t[core.TallyDescents]),
		"right_turns":   float64(t[core.TallyRightTurns]),
		"increments":    float64(t[core.TallyIncrements]),
		"batch_inserts": float64(t[core.TallyBatchInserts]),
		"batch_deletes": float64(t[core.TallyBatchDeletes]),
	}
	if t[core.TallyDescents] > 0 {
		m["counter_traversals"] = float64(t[core.TallyTraversals])
	}
	for _, c := range q.Counters[1:] {
		m.addSum("counter", c.(MetricsSource).Metrics())
	}
	m.finishFactor("counter.funnel")
	addBins(m, q.Bins)
	return m
}

var (
	_ Queue      = (*SimpleTree)(nil)
	_ BatchQueue = (*SimpleTree)(nil)
)
