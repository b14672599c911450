package funnel

// The combining-funnel protocol (Shavit & Zemach; the paper's Section 3.3
// and Figure 10) is written once, here, and run by both twins: natively by
// Counter and Stack, on goroutines and atomics, and on the simulated
// machine by internal/simpq's FunnelCounter and FunnelStack. It is generic
// over the per-operation context C (struct{} natively, *sim.Proc on the
// simulator) and over the twin's leaf, which owns the record words W, the
// layer slots, the central object, the waits and the stats. The protocol
// itself touches shared memory only through the leaf, in the order the
// paper's figure gives, so a twin's accesses are exactly the leaf calls
// the protocol makes.

// Rec is one operation's funnel record. Words holds the twin's shared
// words (location, sum, result and, for a stack, the operand); the other
// fields are private to the owning operation between publication points
// (on a real machine they would be private cached data).
type Rec[W any] struct {
	Words    W
	children []child[W]
	members  []*Rec[W] // the flattened tree, this record first, in apply order
	factor   float64   // adaption factor in (0, 1]
	combined bool      // did this operation collide productively?
	// units is true while every member of this tree carries a ±1 sum.
	// Only such trees may eliminate: with uniform units, opposite trees
	// of equal size pair off exactly; multi-unit operations (AddN/SubN)
	// have no such pairing and bounce off reversing trees instead.
	units bool
}

type child[W any] struct {
	rec *Rec[W]
	sum int64
}

// NewRecs returns one record per entry of words, for a twin whose records
// are fixed per processor. The records share one slab, and one backing
// array each for their members and children. A tree at layer d has 2^d
// members and d children; each record's share holds a tree of layer 2,
// and a record whose tree outgrows it grows a private array once and
// keeps it (the three-index slices stop an append from spilling into a
// neighbour's share).
func NewRecs[W any](words []W) []*Rec[W] {
	const mcap, ccap = 4, 2
	n := len(words)
	slab := make([]Rec[W], n)
	members := make([]*Rec[W], n*mcap)
	children := make([]child[W], n*ccap)
	recs := make([]*Rec[W], n)
	for i := range recs {
		slab[i] = Rec[W]{
			Words:    words[i],
			factor:   1,
			members:  members[i*mcap : i*mcap : (i+1)*mcap],
			children: children[i*ccap : i*ccap : (i+1)*ccap],
		}
		recs[i] = &slab[i]
	}
	return recs
}

// Factor returns the record's adaption factor, in (0, 1].
func (r *Rec[W]) Factor() float64 { return r.factor }

// Event names what a leaf's Count is told about.
type Event int

const (
	// Bypass: an operation under persistently low load skipped the layers.
	Bypass Event = iota
	// Combine: an operation captured another tree into its own.
	Combine
	// Capture: an operation was captured into another tree.
	Capture
	// Eliminate: two reversing trees met and paired off; n is the size of
	// each.
	Eliminate
	// Central: a tree of n operations was applied to the central object.
	Central
	// CentralRetry: a counter's central compare-and-swap failed.
	CentralRetry
)

// Leaf is what the protocol needs of a twin. C is the per-operation
// context and W a record's shared words. Every method that takes a
// record touches only that record's words.
type Leaf[C, W any] interface {
	// Record returns the record for a new operation by c; Release takes
	// it back once the operation has completed and no one else holds it.
	Record(c C) *Rec[W]
	Release(c C, r *Rec[W])
	// Swap stores r in a uniformly random one of the first width slots
	// of the given layer and returns the record it displaced, or nil if
	// the slot was empty.
	Swap(c C, layer, width int, r *Rec[W]) *Rec[W]
	CASLocation(c C, r *Rec[W], old, new uint64) bool
	StoreLocation(c C, r *Rec[W], v uint64)
	LoadSum(c C, r *Rec[W]) int64
	StoreSum(c C, r *Rec[W], v int64)
	StoreResult(c C, r *Rec[W], v uint64)
	// AwaitResult waits until r's result word is nonzero and returns it.
	AwaitResult(c C, r *Rec[W]) uint64
	// Linger waits up to n of the twin's units (spin iterations
	// natively, cycles on the simulator) for r's location to leave loc,
	// and reports whether it did: r was captured.
	Linger(c C, r *Rec[W], loc uint64, n int64) bool
	// Backoff waits after a failed central compare-and-swap; fails counts
	// the failures of this operation before it (0 for the first).
	Backoff(c C, fails int)
	// PassStart and PassEnd bracket each collision pass; PassEnd gets
	// what PassStart returned.
	PassStart(c C) int64
	PassEnd(c C, start int64)
	// Count records an event; n is as the Event says, or 0.
	Count(c C, e Event, n int)
}

// Protocol is the collision layers of one funnel object: its geometry
// and its twin's leaf.
type Protocol[C, W any, L Leaf[C, W]] struct {
	Leaf     L
	widths   []int
	attempts int
	spin     []int64
	adaptive bool
}

// NewProtocol builds the layers: widths[d] slots at layer d, attempts
// collision attempts per pass, a linger of spin[d] at layer d, and, if
// adaptive, the per-record adaption of Section 3.1 (width, attempts and
// linger scale with the record's factor, and a record under persistently
// low load skips the layers).
func NewProtocol[C, W any, L Leaf[C, W]](leaf L, widths []int, attempts int, spin []int64, adaptive bool) Protocol[C, W, L] {
	return Protocol[C, W, L]{Leaf: leaf, widths: widths, attempts: attempts, spin: spin, adaptive: adaptive}
}

// Result word encoding: zero is "no result yet".
const (
	resMarker uint64 = 1 << 63
	resElim   uint64 = 1 << 62
	resFail   uint64 = 1 << 61
	resValue         = resFail - 1
)

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

func locCode(layer int) uint64 { return uint64(layer) + 1 }

func scaleInt(v int, factor float64) int {
	s := int(float64(v) * factor)
	if s < 1 {
		return 1
	}
	return s
}

// outcome describes how one pass through the layers ended.
type outcome int

const (
	outExit       outcome = iota // exited the layers; may apply centrally
	outCaptured                  // collided with; wait for a result
	outEliminated                // met a reversing tree of equal size
	// outIncompatible: a reversing tree was captured but cannot merge
	// (bounded operations do not commute) or pair off (a member is
	// multi-unit). The caller applies it centrally on its behalf and
	// resumes its own pass.
	outIncompatible
)

// begin resets my for an operation of the given sum and publishes it:
// result cleared, sum stored, then the location store that makes it
// collidable. A stack push stores its operand before.
func (f *Protocol[C, W, L]) begin(c C, my *Rec[W], sum int64) {
	my.children = my.children[:0]
	my.members = append(my.members[:0], my)
	my.combined = false
	my.units = sum == 1 || sum == -1
	f.Leaf.StoreResult(c, my, 0)
	f.Leaf.StoreSum(c, my, sum)
	f.Leaf.StoreLocation(c, my, locCode(0))
}

// collide runs one pass of the collision protocol (Figure 10, lines
// 4-27) starting at layer start: nonzero after a failed central attempt,
// so the tree keeps its size-per-layer invariant. eliminate selects
// homogeneous-tree mode (reversing trees of equal size eliminate);
// without it any trees combine, which is only legal for unbounded
// (commuting) operations. On outEliminated and outIncompatible, q is the
// captured reversing tree. It returns the layer the pass stopped at and
// the possibly grown tree sum.
func (f *Protocol[C, W, L]) collide(c C, my *Rec[W], mySum int64, eliminate bool, start int) (outcome, *Rec[W], int, int64) {
	defer f.Leaf.PassEnd(c, f.Leaf.PassStart(c))
	attempts := f.attempts
	if f.adaptive {
		attempts = scaleInt(attempts, my.factor)
		if my.factor <= 0.2 && start == 0 && !my.combined {
			// Under persistently low load, skip the layers and go straight
			// for the central object ("under low load there is no
			// contention so it is better to simply apply the operation and
			// be done", Section 3.1). Central contention revives the
			// factor, so this self-corrects.
			f.Leaf.Count(c, Bypass, 0)
			return outExit, nil, 0, mySum
		}
	}
	d := start
	for n := 0; n < attempts && d < len(f.widths); n++ {
		width, linger := f.widths[d], f.spin[d]
		if f.adaptive {
			// The linger scales with the factor too: a record that never
			// collides stops paying to wait (decay is gentle, so one miss
			// under real load barely moves it).
			width = scaleInt(width, my.factor)
			linger = max(int64(float64(linger)*my.factor), 1)
		}
		q := f.Leaf.Swap(c, d, width, my)
		if q != nil && q != my {
			if !f.Leaf.CASLocation(c, my, locCode(d), 0) {
				f.Leaf.Count(c, Capture, 0)
				return outCaptured, nil, d, mySum
			}
			if f.Leaf.CASLocation(c, q, locCode(d), 0) {
				qSum := f.Leaf.LoadSum(c, q)
				if eliminate {
					if qSum+mySum == 0 && my.units && q.units {
						my.combined = true // elimination is a productive collision
						f.Leaf.Count(c, Eliminate, len(my.members))
						return outEliminated, q, d, mySum
					}
					if (qSum < 0) != (mySum < 0) {
						// Reversing trees that cannot pair off exactly: the
						// clamped operations do not commute, so the trees
						// must stay separate.
						return outIncompatible, q, d, mySum
					}
				}
				// Trees at one layer have one size, so a same-direction
				// collision is always a legal combine; without elimination
				// (unbounded mode) any collision combines.
				f.Leaf.Count(c, Combine, 0)
				mySum += qSum
				f.Leaf.StoreSum(c, my, mySum)
				my.children = append(my.children, child[W]{rec: q, sum: qSum})
				my.members = append(my.members, q.members...)
				my.combined = true
				my.units = my.units && q.units
				d++
				f.Leaf.StoreLocation(c, my, locCode(d))
				n = -1 // restart the attempt count at the new layer
				continue
			}
			f.Leaf.StoreLocation(c, my, locCode(d))
		}
		// Linger, hoping to be collided with (lines 25-26).
		if f.Leaf.Linger(c, my, locCode(d), linger) {
			f.Leaf.Count(c, Capture, 0)
			return outCaptured, nil, d, mySum
		}
	}
	return outExit, nil, d, mySum
}

// awaitResult waits for a parent to deliver my's result and decodes it.
func (f *Protocol[C, W, L]) awaitResult(c C, my *Rec[W]) (elim, fail bool, value uint64) {
	v := f.Leaf.AwaitResult(c, my)
	return v&resElim != 0, v&resFail != 0, v & resValue
}

// done adapts my's factor to the completed operation's outcome and
// releases the record.
func (f *Protocol[C, W, L]) done(c C, my *Rec[W]) {
	if f.adaptive {
		if my.combined {
			my.factor = min(my.factor*1.4, 1)
		} else {
			// Decay gently: one missed collision under real load must not
			// spiral the record out of the funnel (a shorter linger means
			// even fewer collisions).
			my.factor = max(my.factor*0.85, 0.15)
		}
	}
	f.Leaf.Release(c, my)
}
