package funnel

import (
	"runtime"
	"sync/atomic"
)

// Counter is a combining-funnel shared counter.
//
// In bounded mode (the paper's Section 3.3 algorithm) it supports
// fetch-and-increment and bounded fetch-and-decrement: combining trees
// stay homogeneous because bounded operations do not commute, and
// reversing trees of equal size eliminate, reading (not writing) the
// central value and returning interleaved results.
//
// In unbounded mode it is a plain combining fetch-and-add: any operations
// combine and nothing eliminates.
type Counter struct {
	core *core[struct{}]
	main atomic.Int64
	// direct counts operations applied to main by the central-first
	// step; it sits beside main so the count rides on the cache line the
	// CAS just took.
	direct  atomic.Int64
	lower   int64
	upper   int64
	bounded bool
}

// NoBound disables one side of a bounded counter's range.
const NoBound = int64(1) << 58

// NewCounter builds a counter with the given initial value. If bounded,
// decrements never take the value below bound (and increments are
// unbounded; see NewCounterBounds for a two-sided range).
func NewCounter(params Params, initial int64, bounded bool, bound int64) *Counter {
	if !bounded {
		return NewCounterBounds(params, initial, -NoBound, NoBound)
	}
	c := NewCounterBounds(params, initial, bound, NoBound)
	return c
}

// NewCounterBounds builds a counter whose value stays in [lower, upper]:
// FaD never goes below lower, FaI never above upper (the paper's bounded
// fetch-and-decrement and the "analogous bounded fetch-and-increment" of
// Section 3.3). Use ±NoBound to disable a side; with both sides disabled
// the counter degenerates to plain combining fetch-and-add, which is also
// what unbounded NewCounter returns.
func NewCounterBounds(params Params, initial, lower, upper int64) *Counter {
	c := &Counter{
		core:    newCore[struct{}](params),
		lower:   lower,
		upper:   upper,
		bounded: lower > -NoBound || upper < NoBound,
	}
	c.main.Store(initial)
	return c
}

// ctrBias offsets counter values into the non-negative result-encoding
// range; counter values must stay within roughly +/- 2^59.
const ctrBias = int64(1) << 59

func encCtr(v int64) uint64 { return uint64(v + ctrBias) }
func decCtr(u uint64) int64 { return int64(u) - ctrBias }

// Value returns a snapshot of the central counter.
func (c *Counter) Value() int64 { return c.main.Load() }

// Stats reports how this counter's operations have resolved so far;
// Central includes the operations the central-first step applied.
func (c *Counter) Stats() Stats {
	st := c.core.stats.snapshot()
	st.Central += c.direct.Load()
	return st
}

// FaI performs fetch-and-increment and returns the previous value this
// operation observed.
func (c *Counter) FaI() int64 { return c.op(1) }

// FaD performs (bounded, if the counter is bounded) fetch-and-decrement
// and returns the previous value; in bounded mode a return equal to the
// lower bound means the counter was not decremented.
func (c *Counter) FaD() int64 { return c.op(-1) }

// BFaI is fetch-and-increment against the upper bound: a return equal to
// the upper bound means the counter was not incremented. Identical to FaI
// when no upper bound is set.
func (c *Counter) BFaI() int64 { return c.op(1) }

// Add performs fetch-and-add of delta (+1 or -1 through the funnel);
// other deltas apply directly to the central counter and are intended for
// initialization. Only valid in unbounded mode for arbitrary deltas.
func (c *Counter) Add(delta int64) int64 {
	if delta == 1 || delta == -1 {
		return c.op(delta)
	}
	return c.main.Add(delta) - delta
}

// AddN performs a multi-unit fetch-and-increment of n >= 1 as a single
// funnel operation: one traversal, one central RMW for the whole batch.
// It returns the previous value prev; with an upper bound U the counter
// gained min(n, U-prev) — the prefix that fits, exactly as n sequential
// BFaI calls would have back to back. Same-direction operations still
// combine in the funnel; reversing trees do not eliminate against
// multi-unit operations (there is no exact pairing) and are applied
// centrally on their behalf instead.
func (c *Counter) AddN(n int64) int64 {
	if n < 1 {
		panic("funnel: AddN requires n >= 1")
	}
	return c.op(n)
}

// SubN is the multi-unit bounded fetch-and-decrement: it returns the
// previous value prev, having subtracted min(n, prev-L) for lower bound
// L — the counter never undershoots the bound, exactly as n sequential
// FaD calls would behave back to back.
func (c *Counter) SubN(n int64) int64 {
	if n < 1 {
		panic("funnel: SubN requires n >= 1")
	}
	return c.op(-n)
}

// clamp returns the value the central counter takes when sum is applied
// to val. A bounded counter's trees are homogeneous, so sum's sign is the
// direction of every member and picks the bound that applies.
func (c *Counter) clamp(val, sum int64) int64 {
	nv := val + sum
	if c.bounded {
		if sum < 0 && nv < c.lower {
			nv = c.lower
		}
		if sum > 0 && nv > c.upper {
			nv = c.upper
		}
	}
	return nv
}

func (c *Counter) op(s int64) int64 {
	if c.core.params.Adaptive {
		// Central first: one CAS, as a one-member tree leaving the
		// funnel would make. The operation is not published yet, so no
		// one can have captured it; only on conflict does it pay for a
		// record and the layers.
		val := c.main.Load()
		if c.main.CompareAndSwap(val, c.clamp(val, s)) {
			c.direct.Add(1)
			return val
		}
	}
	my := c.core.begin(s, struct{}{})
	mySum := s
	d := 0
	centralFails := 0
	for {
		var (
			out outcome
			q   *record[struct{}]
		)
		out, q, d, mySum = c.core.collide(my, mySum, c.bounded, d)
		switch out {
		case outCaptured:
			elim, _, base := my.awaitResult()
			return c.distribute(my, s, elim, decCtr(base))

		case outEliminated:
			// The interleaved order starts with whichever operation can
			// move the counter off a bound: increment-first at the lower
			// bound (so the decrement sees lower+1), decrement-first
			// otherwise (which also behaves correctly at the upper bound:
			// both operations succeed and the counter nets to val).
			val := c.main.Load()
			if c.bounded && val <= c.lower {
				val++
			}
			myVal, qVal := val, val-1
			if s > 0 {
				myVal, qVal = val-1, val
			}
			q.result.Store(encodeResult(true, false, encCtr(qVal)))
			return c.distribute(my, s, true, myVal)

		case outIncompatible:
			// We captured a reversing tree q that cannot pair off against
			// ours (a multi-unit member on either side). Apply q centrally
			// on its behalf — clamped by its own direction — hand it its
			// result, and resume our own protocol at the same layer.
			qSum := q.sum.Load()
			for {
				val := c.main.Load()
				if c.main.CompareAndSwap(val, c.clamp(val, qSum)) {
					c.core.stats.central.Add(1)
					q.result.Store(encodeResult(false, false, encCtr(val)))
					break
				}
				c.core.stats.centralRetry.Add(1)
				runtime.Gosched()
			}
			my.location.Store(locCode(d))

		case outExit:
			if !my.location.CompareAndSwap(locCode(d), 0) {
				elim, _, base := my.awaitResult()
				return c.distribute(my, s, elim, decCtr(base))
			}
			val := c.main.Load()
			if c.main.CompareAndSwap(val, c.clamp(val, mySum)) {
				c.core.stats.central.Add(1)
				return c.distribute(my, s, false, val)
			}
			c.core.stats.centralRetry.Add(1)
			// Central contention: back off exponentially before retrying
			// (bare CAS retries among many tree roots convoy), and revive
			// this goroutine's funnel usage — contention means partners.
			if my.factor < 1 {
				my.factor *= 1.5
				if my.factor > 1 {
					my.factor = 1
				}
			}
			my.location.Store(locCode(d))
			spins := 1 << uint(min(centralFails, 6))
			centralFails++
			for i := 0; i < spins; i++ {
				runtime.Gosched()
			}
		}
	}
}

// distribute hands results to direct children (they recurse to theirs)
// and returns this operation's own value.
func (c *Counter) distribute(my *record[struct{}], s int64, elim bool, base int64) int64 {
	total := s
	for _, ch := range my.children {
		if elim {
			ch.rec.result.Store(encodeResult(true, false, encCtr(base)))
			continue
		}
		ch.rec.result.Store(encodeResult(false, false, encCtr(c.clamp(base, total))))
		total += ch.sum
	}
	c.core.finish(my)
	return base
}
