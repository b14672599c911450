package simpq

import (
	"pq/internal/funnel"
	"pq/internal/sim"
)

// FunnelCounter is a shared counter built from a combining funnel. In
// bounded mode it implements the paper's Section 3.3 algorithm (Figure
// 10): combining trees are kept homogeneous (one operation kind per tree)
// because bounded operations do not commute, and reversing operations of
// equal tree size eliminate, short-cutting past the central counter. In
// unbounded mode it is the plain combining-funnel fetch-and-add of Shavit
// and Zemach's funnels paper: any operations combine and nothing
// eliminates.
type FunnelCounter struct {
	proto funnel.CounterProtocol[*sim.Proc, sim.Addr, counterLeaf]
	main  sim.Addr

	// Host-side operation statistics (no simulated cost): operations
	// applied at the central word and central CAS failures. Captures and
	// eliminations are the funnel's own counters (Metrics' "funnel."
	// prefix).
	Stats FunnelCounterStats
}

// FunnelCounterStats counts what happened at the central word.
type FunnelCounterStats struct {
	CentralOK   int
	CentralFail int
}

// Metrics reports the counter's internals: funnel collision counters
// (prefix "funnel") plus how operations retired at the central word.
func (c *FunnelCounter) Metrics() Metrics {
	m := Metrics{
		"central_ok":   float64(c.Stats.CentralOK),
		"central_fail": float64(c.Stats.CentralFail),
	}
	m.add("funnel", c.proto.Leaf.Metrics())
	return m
}

// NoUpperBound disables the upper bound of a bounded counter.
const NoUpperBound = uint64(1) << 58

// NewFunnelCounter builds a counter starting at zero. If bounded is true,
// decrements never take the value below bound and trees are homogeneous.
func NewFunnelCounter(m *sim.Machine, params FunnelParams, bounded bool, bound uint64) *FunnelCounter {
	if !bounded {
		return newFunnelCounter(m, params, 0, NoUpperBound, false)
	}
	return NewFunnelCounterBounds(m, params, bound, NoUpperBound)
}

// NewFunnelCounterBounds builds a counter whose value stays in
// [lower, upper] — the paper's bounded fetch-and-decrement plus the
// "analogous bounded fetch-and-increment" it mentions for completeness.
func NewFunnelCounterBounds(m *sim.Machine, params FunnelParams, lower, upper uint64) *FunnelCounter {
	return newFunnelCounter(m, params, lower, upper, true)
}

func newFunnelCounter(m *sim.Machine, params FunnelParams, lower, upper uint64, bounded bool) *FunnelCounter {
	f := newFunnel(m, params)
	c := &FunnelCounter{main: m.Alloc(1)}
	m.Label(c.main, 1, "funnelcounter.main")
	c.proto = funnel.NewCounterProtocol(protocol(counterLeaf{f, c}, params), int64(lower), int64(upper), bounded)
	return c
}

// counterLeaf is a FunnelCounter's leaf: the funnel's, plus the central
// word and the counter's own stats.
type counterLeaf struct {
	*funnelLeaf
	c *FunnelCounter
}

func (l counterLeaf) LoadMain(p *sim.Proc) int64 { return int64(p.Read(l.c.main)) }

func (l counterLeaf) CASMain(p *sim.Proc, old, new int64) bool {
	return p.CAS(l.c.main, uint64(old), uint64(new))
}

func (l counterLeaf) Count(_ *sim.Proc, e funnel.Event, _ int) {
	l.count(e)
	switch e {
	case funnel.Central:
		l.c.Stats.CentralOK++
	case funnel.CentralRetry:
		l.c.Stats.CentralFail++
	}
}

// Value reads the central counter (one shared read; a snapshot only).
func (c *FunnelCounter) Value(p *sim.Proc) uint64 { return p.Read(c.main) }

// FaI performs fetch-and-increment through the funnel and returns the
// previous value seen by this operation.
func (c *FunnelCounter) FaI(p *sim.Proc) uint64 { return uint64(c.proto.Op(p, 1)) }

// BFaD performs the bounded fetch-and-decrement of Figure 10: it returns
// the previous value, decrementing only if the value exceeded the lower
// bound. A return value equal to the bound means the counter was not
// decremented.
func (c *FunnelCounter) BFaD(p *sim.Proc) uint64 { return uint64(c.proto.Op(p, -1)) }

// BFaI is fetch-and-increment against the upper bound: a return equal to
// the upper bound means the counter was not incremented. Identical to FaI
// when no upper bound is set.
func (c *FunnelCounter) BFaI(p *sim.Proc) uint64 { return uint64(c.proto.Op(p, 1)) }

// AddN adds n as one funnel operation, clamped at the upper bound, and
// returns the previous value: the batch equivalent of n consecutive BFaI
// calls paying one funnel traversal.
func (c *FunnelCounter) AddN(p *sim.Proc, n int64) uint64 {
	if n < 1 {
		panic("simpq: FunnelCounter.AddN needs n >= 1")
	}
	return uint64(c.proto.Op(p, n))
}

// BSubN subtracts up to n as one funnel operation, stopping at the lower
// bound, and returns the previous value; the effective amount taken is
// min(n, prev-lower), matching n consecutive BFaD calls.
func (c *FunnelCounter) BSubN(p *sim.Proc, n int64) uint64 {
	if n < 1 {
		panic("simpq: FunnelCounter.BSubN needs n >= 1")
	}
	return uint64(c.proto.Op(p, -n))
}
