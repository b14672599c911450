package funnel

import "sync/atomic"

// CounterLeaf is a Leaf that also owns a counter's central word.
type CounterLeaf[C, W any] interface {
	Leaf[C, W]
	LoadMain(c C) int64
	CASMain(c C, old, new int64) bool
}

// bounds is a counter's range: with bounded unset the counter is plain
// fetch-and-add and nothing clamps.
type bounds struct {
	lower, upper int64
	bounded      bool
}

// clamp returns the value the central counter takes when sum is applied
// to val. A bounded counter's trees are homogeneous, so sum's sign is the
// direction of every member and picks the bound that applies.
func (b *bounds) clamp(val, sum int64) int64 {
	nv := val + sum
	if b.bounded {
		if sum < 0 && nv < b.lower {
			nv = b.lower
		}
		if sum > 0 && nv > b.upper {
			nv = b.upper
		}
	}
	return nv
}

// CounterProtocol is the funnel counter's operation loop, shared by the
// twins; Counter describes its two modes.
type CounterProtocol[C, W any, L CounterLeaf[C, W]] struct {
	Protocol[C, W, L]
	bounds
}

// NewCounterProtocol builds a counter's loop over the layers f whose
// values stay in [lower, upper] when bounded.
func NewCounterProtocol[C, W any, L CounterLeaf[C, W]](f Protocol[C, W, L], lower, upper int64, bounded bool) CounterProtocol[C, W, L] {
	return CounterProtocol[C, W, L]{Protocol: f, bounds: bounds{lower, upper, bounded}}
}

// ctrBias offsets counter values into the result encoding's
// non-negative value field: results carry value+ctrBias, so counter
// values must stay within roughly +/- 2^59.
const ctrBias = int64(1) << 59

func (k *CounterProtocol[C, W, L]) enc(v int64) uint64 { return uint64(v + ctrBias) }
func (k *CounterProtocol[C, W, L]) dec(u uint64) int64 { return int64(u) - ctrBias }

// Op applies s (±1, or ±n for a multi-unit operation) through the funnel
// and returns the value the operation observed. A multi-unit operation
// changes the counter by the prefix of its units that fits the bound.
func (k *CounterProtocol[C, W, L]) Op(c C, s int64) int64 {
	my := k.Leaf.Record(c)
	k.begin(c, my, s)
	mySum, d, fails := s, 0, 0
	for {
		var (
			out outcome
			q   *Rec[W]
		)
		out, q, d, mySum = k.collide(c, my, mySum, k.bounded, d)
		switch out {
		case outCaptured:
			elim, _, base := k.awaitResult(c, my)
			return k.distribute(c, my, s, elim, k.dec(base))

		case outEliminated:
			// Figure 10, lines 12-18: both trees short-cut. The
			// interleaved order starts with whichever operation can move
			// the counter off a bound: increment-first at the lower bound
			// (so the decrement sees lower+1), decrement-first otherwise
			// (which also behaves correctly at the upper bound: both
			// operations succeed and the counter nets to val).
			val := k.Leaf.LoadMain(c)
			if k.bounded && val <= k.lower {
				val++
			}
			myVal, qVal := val, val-1
			if s > 0 {
				myVal, qVal = val-1, val
			}
			k.Leaf.StoreResult(c, q, encodeResult(true, false, k.enc(qVal)))
			return k.distribute(c, my, s, true, myVal)

		case outIncompatible:
			// A reversing tree q that cannot pair off against ours (a
			// multi-unit member on either side): apply q centrally on its
			// behalf, clamped by its own direction, hand it its result,
			// and resume our own pass at the same layer.
			qSum := k.Leaf.LoadSum(c, q)
			for {
				val := k.Leaf.LoadMain(c)
				if k.Leaf.CASMain(c, val, k.clamp(val, qSum)) {
					k.Leaf.Count(c, Central, 1)
					k.Leaf.StoreResult(c, q, encodeResult(false, false, k.enc(val)))
					break
				}
				k.Leaf.Count(c, CentralRetry, 0)
				k.Leaf.Backoff(c, 0)
			}
			k.Leaf.StoreLocation(c, my, locCode(d))

		case outExit:
			if !k.Leaf.CASLocation(c, my, locCode(d), 0) {
				elim, _, base := k.awaitResult(c, my)
				return k.distribute(c, my, s, elim, k.dec(base))
			}
			val := k.Leaf.LoadMain(c)
			if k.Leaf.CASMain(c, val, k.clamp(val, mySum)) {
				k.Leaf.Count(c, Central, 1)
				return k.distribute(c, my, s, false, val)
			}
			k.Leaf.Count(c, CentralRetry, 0)
			// Central contention: back off (bare CAS retries among many
			// tree roots convoy), then re-enter the layers at the same
			// layer. Contention also revives this record's funnel usage:
			// contention means partners.
			if my.factor < 1 {
				my.factor = min(my.factor*1.5, 1)
			}
			k.Leaf.StoreLocation(c, my, locCode(d))
			k.Leaf.Backoff(c, fails)
			fails++
		}
	}
}

// distribute hands results to my's direct children (Figure 10, lines
// 41-47; each recurses to its own when it wakes) and returns my's own
// value. After an elimination every member gets the same value (the
// operations interleave); otherwise each child tree's base is offset by
// the operations applied before it, clamped at the bound.
func (k *CounterProtocol[C, W, L]) distribute(c C, my *Rec[W], s int64, elim bool, base int64) int64 {
	total := s
	for _, ch := range my.children {
		if elim {
			k.Leaf.StoreResult(c, ch.rec, encodeResult(true, false, k.enc(base)))
			continue
		}
		k.Leaf.StoreResult(c, ch.rec, encodeResult(false, false, k.enc(k.clamp(base, total))))
		total += ch.sum
	}
	k.done(c, my)
	return base
}

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
	main atomic.Int64
	// direct counts operations applied to main by the central-first
	// step; it sits beside main so the count rides on the cache line the
	// CAS just took.
	direct atomic.Int64
	// proto is its own allocation, so the words the layers read on every
	// step stay off the cache line that main's CASes take.
	proto *CounterProtocol[struct{}, words[struct{}], nativeCounter]
}

// nativeCounter is the native leaf of a Counter: its central word is
// the Counter's main.
type nativeCounter struct {
	*native[struct{}]
	main *atomic.Int64
}

func (l nativeCounter) LoadMain(struct{}) int64 { return l.main.Load() }
func (l nativeCounter) CASMain(_ struct{}, old, new int64) bool {
	return l.main.CompareAndSwap(old, new)
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
	return NewCounterBounds(params, initial, bound, NoBound)
}

// NewCounterBounds builds a counter whose value stays in [lower, upper]:
// FaD never goes below lower, FaI never above upper (the paper's bounded
// fetch-and-decrement and the "analogous bounded fetch-and-increment" of
// Section 3.3). Use ±NoBound to disable a side; with both sides disabled
// the counter degenerates to plain combining fetch-and-add, which is also
// what unbounded NewCounter returns.
func NewCounterBounds(params Params, initial, lower, upper int64) *Counter {
	params = params.normalized()
	c := &Counter{}
	f := newProtocol(params, nativeCounter{newNative[struct{}](params), &c.main})
	proto := NewCounterProtocol(f, lower, upper, lower > -NoBound || upper < NoBound)
	c.proto = &proto
	c.main.Store(initial)
	return c
}

// Value returns a snapshot of the central counter.
func (c *Counter) Value() int64 { return c.main.Load() }

// Stats reports how this counter's operations have resolved so far;
// Central includes the operations the central-first step applied.
func (c *Counter) Stats() Stats {
	st := c.proto.Leaf.stats.snapshot()
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

// Add performs fetch-and-add of delta and returns the previous value.
// It respects the bounds like AddN (delta > 0) and SubN (delta < 0): a
// bounded counter moves by the part of delta that fits. Add(0) returns
// the value.
func (c *Counter) Add(delta int64) int64 {
	if delta == 0 {
		return c.Value()
	}
	return c.op(delta)
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

func (c *Counter) op(s int64) int64 {
	if c.proto.adaptive {
		// Central first: one CAS, as a one-member tree leaving the
		// funnel would make. The operation is not published yet, so no
		// one can have captured it; only on conflict does it pay for a
		// record and the layers.
		val := c.main.Load()
		if c.main.CompareAndSwap(val, c.proto.clamp(val, s)) {
			c.direct.Add(1)
			return val
		}
	}
	return c.proto.Op(struct{}{}, s)
}
