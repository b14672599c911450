// Package funnel implements combining funnels (Shavit & Zemach, PODC
// 1998) natively on Go goroutines and atomics: randomized combining
// layers in which concurrent operations collide, merge into trees, and
// apply in one shot — plus the paper's PODC 1999 extension, a bounded
// fetch-and-decrement counter with homogeneous combining trees and
// elimination of reversing operations.
//
// Two funnel-based objects are provided: Counter (fetch-and-increment /
// bounded fetch-and-decrement, or plain combining fetch-and-add in
// unbounded mode) and Stack (a lock-free-feeling LIFO whose reversing
// push/pop trees eliminate without touching the central stack).
//
// Under Params.Adaptive (the DefaultParams setting) an operation tries
// the central object once before it publishes anything: one CAS on the
// counter word, or TryLock on the stack's lock. Only when that fails
// does it take a record and run the collision protocol, so the layers
// cost nothing while the central object is not contended — the paper's
// low-load adaption taken to its limit. A direct application is exactly
// a one-member tree leaving the funnel, and an unpublished operation
// cannot be captured, so the protocol's guarantees are unchanged. With
// Adaptive off every operation enters the layers, as in the paper.
package funnel

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// Params tunes a funnel: combining layer widths, collision attempts per
// pass, per-layer linger durations (in spin iterations), and whether each
// goroutine adapts its funnel usage to observed load.
type Params struct {
	// Widths holds each combining layer's width; its length sets the
	// number of layers.
	Widths []int
	// Attempts is the number of collision attempts per pass before the
	// operation tries the central object.
	Attempts int
	// Spin is the per-layer number of linger iterations spent waiting to
	// be collided with after an unsuccessful attempt.
	Spin []int
	// Adaptive enables per-goroutine width/effort adaption, and the
	// central-first step: each operation tries the central object once
	// and enters the layers only if that conflicts.
	Adaptive bool
}

// DefaultParams returns parameters scaled to concurrency level p
// (typically GOMAXPROCS or the expected number of contending goroutines).
func DefaultParams(p int) Params {
	levels := 1
	switch {
	case p >= 224:
		levels = 4
	case p >= 64:
		levels = 3
	case p >= 8:
		levels = 2
	}
	prm := Params{
		Widths:   make([]int, levels),
		Attempts: 3,
		Spin:     make([]int, levels),
		Adaptive: true,
	}
	// Linger iterations scale with expected traffic: with few contenders
	// a partner rarely shows up within any wait.
	spin := p * 4
	if spin < 4 {
		spin = 4
	}
	if spin > 48 {
		spin = 48
	}
	for l := 0; l < levels; l++ {
		w := p >> uint(l+2)
		if w < 1 {
			w = 1
		}
		prm.Widths[l] = w
		prm.Spin[l] = spin
	}
	return prm
}

func (p *Params) levels() int { return len(p.Widths) }

func (p *Params) normalized() Params {
	q := *p
	if len(q.Widths) == 0 {
		q.Widths = []int{1}
	}
	q.Widths = append([]int(nil), q.Widths...)
	for i, w := range q.Widths {
		if w < 1 {
			q.Widths[i] = 1
		}
	}
	if q.Attempts < 1 {
		q.Attempts = 1
	}
	spin := make([]int, len(q.Widths))
	for i := range spin {
		if i < len(q.Spin) && q.Spin[i] > 0 {
			spin[i] = q.Spin[i]
		} else {
			spin[i] = 32
		}
	}
	q.Spin = spin
	return q
}

// Operation result states.
const (
	resEmpty  uint64 = 0
	resMarker uint64 = 1 << 63
	resElim   uint64 = 1 << 62
	resFail   uint64 = 1 << 61
	resValue         = resFail - 1
)

// record is one operation's shared descriptor. Location and result are
// the contended fields; children/members/rng are private to the owning
// goroutine between publication points.
type record[T any] struct {
	location atomic.Uint64 // 0 = not collidable, else layer+1
	sum      atomic.Int64
	result   atomic.Uint64
	item     T

	children []childRef[T]
	members  []*record[T]
	rng      *rand.Rand
	factor   float64
	combined bool
	// units is true while every member of this tree carries a ±1 sum.
	// Only such trees may eliminate: with uniform units, opposite trees
	// of equal size pair off exactly; multi-unit operations (AddN/SubN)
	// have no such pairing and bounce off reversing trees instead.
	units bool
}

type childRef[T any] struct {
	rec *record[T]
	sum int64
}

// Stats counts how operations on a funnel object resolved — useful for
// verifying that combining and elimination actually engage under a given
// workload and parameter set. Counters are updated atomically and may be
// read at any time.
type Stats struct {
	// Combined counts operations absorbed into another operation's tree;
	// Eliminated counts operations retired by meeting a reversing tree;
	// Central counts batches applied to the central object, operations
	// applied by the central-first step included; CentralRetry counts
	// failed central compare-and-swap attempts of trees that left the
	// layers (Counter only).
	Combined, Eliminated, Central, CentralRetry int64
}

// statCounters is the internal atomic representation.
type statCounters struct {
	combined, eliminated, central, centralRetry atomic.Int64
}

func (s *statCounters) snapshot() Stats {
	return Stats{
		Combined:     s.combined.Load(),
		Eliminated:   s.eliminated.Load(),
		Central:      s.central.Load(),
		CentralRetry: s.centralRetry.Load(),
	}
}

// core is the collision machinery shared by Counter and Stack.
type core[T any] struct {
	params Params
	layers [][]atomic.Pointer[record[T]]
	pool   sync.Pool
	seed   atomic.Int64
	stats  statCounters
}

func newCore[T any](params Params) *core[T] {
	c := &core[T]{params: params.normalized()}
	c.layers = make([][]atomic.Pointer[record[T]], c.params.levels())
	for l, w := range c.params.Widths {
		c.layers[l] = make([]atomic.Pointer[record[T]], w)
	}
	c.pool.New = func() any {
		return &record[T]{
			rng:    rand.New(rand.NewSource(c.seed.Add(0x1e3779b97f4a7c15))),
			factor: 1,
		}
	}
	return c
}

// begin readies a pooled record for an operation with the given sum and
// operand. The operand is written before the location store publishes the
// record, so a capturer's location CAS synchronizes with it.
func (c *core[T]) begin(sum int64, item T) *record[T] {
	my := c.pool.Get().(*record[T])
	my.children = my.children[:0]
	my.members = append(my.members[:0], my)
	my.combined = false
	my.units = sum == 1 || sum == -1
	my.item = item
	my.result.Store(resEmpty)
	my.sum.Store(sum)
	my.location.Store(locCode(0))
	return my
}

// finish recycles a record whose operation has fully completed (location
// and result are both settled and no other goroutine holds it for
// collision purposes).
func (c *core[T]) finish(my *record[T]) {
	if c.params.Adaptive {
		if my.combined {
			my.factor *= 1.4
			if my.factor > 1 {
				my.factor = 1
			}
		} else {
			// Decay gently: one missed collision under real load must not
			// spiral the goroutine out of the funnel.
			my.factor *= 0.85
			if my.factor < 0.15 {
				my.factor = 0.15
			}
		}
	}
	c.pool.Put(my)
}

func locCode(layer int) uint64 { return uint64(layer) + 1 }

type outcome int

const (
	outExit outcome = iota
	outCaptured
	outEliminated
	// outIncompatible: a reversing tree was captured but cannot merge
	// (bounded operations do not commute) or pair off (a member is
	// multi-unit). The caller must apply the captured tree centrally on
	// its behalf and resume its own protocol.
	outIncompatible
)

// collide drives one pass of the collision protocol starting at layer
// start. eliminate selects homogeneous-tree mode (opposite-direction
// trees of equal size eliminate); without it any trees combine, which is
// only legal for unbounded (commuting) operations.
func (c *core[T]) collide(my *record[T], mySum int64, eliminate bool, start int) (outcome, *record[T], int, int64) {
	levels := c.params.levels()
	attempts := c.params.Attempts
	if c.params.Adaptive {
		attempts = scaleInt(attempts, my.factor)
	}
	spinScale := 1.0
	if c.params.Adaptive {
		spinScale = my.factor
	}
	if c.params.Adaptive && my.factor <= 0.2 && start == 0 && !my.combined {
		// Under persistently low load, skip the funnel entirely and go
		// straight for the central object; central contention revives the
		// factor, so this self-corrects.
		return outExit, nil, 0, mySum
	}
	d := start
	for n := 0; n < attempts && d < levels; n++ {
		width := c.params.Widths[d]
		if c.params.Adaptive {
			width = scaleInt(width, my.factor)
		}
		slot := &c.layers[d][my.rng.Intn(width)]
		q := slot.Swap(my)
		if q != nil && q != my {
			if !my.location.CompareAndSwap(locCode(d), 0) {
				return outCaptured, nil, d, mySum
			}
			if q.location.CompareAndSwap(locCode(d), 0) {
				qSum := q.sum.Load()
				if eliminate {
					if qSum+mySum == 0 && my.units && q.units {
						my.combined = true // elimination is a productive collision
						c.stats.eliminated.Add(2)
						return outEliminated, q, d, mySum
					}
					if (qSum < 0) != (mySum < 0) {
						// Reversing trees that cannot pair off exactly: the
						// clamped operations do not commute, so the trees
						// must stay separate. Hand q to the caller to apply
						// centrally on its behalf.
						return outIncompatible, q, d, mySum
					}
				}
				c.stats.combined.Add(1)
				mySum += qSum
				my.sum.Store(mySum)
				my.units = my.units && q.units
				my.children = append(my.children, childRef[T]{rec: q, sum: qSum})
				my.members = append(my.members, q.members...)
				my.combined = true
				d++
				my.location.Store(locCode(d))
				n = -1
				continue
			}
			my.location.Store(locCode(d))
		}
		// Linger hoping to be collided with; under low observed load the
		// adaption factor trims the linger along with width and attempts.
		linger := scaleInt(c.params.Spin[d], spinScale)
		for s := 0; s < linger; s++ {
			if my.location.Load() != locCode(d) {
				return outCaptured, nil, d, mySum
			}
			runtime.Gosched()
		}
	}
	return outExit, nil, d, mySum
}

// awaitResult spins (yielding) until a parent delivers the result.
func (my *record[T]) awaitResult() (elim, fail bool, value uint64) {
	v := my.result.Load()
	for v == resEmpty {
		runtime.Gosched()
		v = my.result.Load()
	}
	return v&resElim != 0, v&resFail != 0, v & resValue
}

func encodeResult(elim, fail bool, value uint64) uint64 {
	v := resMarker | (value & resValue)
	if elim {
		v |= resElim
	}
	if fail {
		v |= resFail
	}
	return v
}

func scaleInt(v int, factor float64) int {
	s := int(float64(v) * factor)
	if s < 1 {
		return 1
	}
	return s
}
