package simpq

import "pq/internal/sim"

// FunnelParams tunes a combining funnel (Shavit & Zemach, PODC 1998): the
// number of combining layers, their widths, how many collision attempts a
// processor makes per pass, and how long it lingers at a layer hoping to
// be collided with.
type FunnelParams struct {
	// Widths holds the width of each combining layer; its length is the
	// number of layers.
	Widths []int
	// Attempts is the number of collision attempts per pass before trying
	// the central object.
	Attempts int
	// Spin is the per-layer delay (cycles) spent waiting to be collided
	// with after a failed attempt.
	Spin []int64
	// Adaptive enables the local layer-width/effort adaption of Section
	// 3.1: each processor scales its funnel usage by its observed
	// collision rate.
	Adaptive bool
}

// DefaultFunnelParams returns the parameter set used for all funnels in
// the experiments, scaled to the machine's processor count (the paper
// tuned one set of parameters at 256 processors and reused it everywhere).
func DefaultFunnelParams(procs int) FunnelParams {
	levels := 1
	switch {
	case procs >= 224:
		levels = 5
	case procs >= 96:
		levels = 4
	case procs >= 32:
		levels = 3
	case procs >= 8:
		levels = 2
	}
	p := FunnelParams{
		Widths:   make([]int, levels),
		Attempts: 4,
		Spin:     make([]int64, levels),
		Adaptive: true,
	}
	// Linger time scales with expected traffic: with few processors a
	// partner rarely shows up within any wait, so waiting long is wasted.
	spin := int64(procs) / 2
	if spin < 1 {
		spin = 1
	}
	if spin > 5 {
		spin = 5
	}
	for l := 0; l < levels; l++ {
		w := procs >> uint(l+3)
		if w < 1 {
			w = 1
		}
		p.Widths[l] = w
		p.Spin[l] = spin * sim.DefaultRemoteCost
	}
	return p
}

func (fp *FunnelParams) levels() int { return len(fp.Widths) }

// Funnel record layout: 4 words per processor.
const (
	frSum      = 0 // operation sum (two's complement)
	frLocation = 1 // 0 = unavailable, else layer+1
	frResult   = 2 // 0 = empty, else encoded result
	frItem     = 3 // stack operand
	frWords    = 4
)

// Result word encoding.
const (
	resMarker = 1 << 63
	resElim   = 1 << 62
	resFail   = 1 << 61
	resValue  = resFail - 1
)

// funnelRec is the host-side view of one processor's funnel record; the
// shared, contended fields (sum, location, result, item) live in simulated
// memory, while purely private bookkeeping (children, members, adaption
// state) stays on the host, as private cached data would on a real
// machine.
type funnelRec struct {
	addr     sim.Addr
	children []childRef   // direct children, for recursive distribution
	members  []*funnelRec // flattened subtree including self, in apply order
	factor   float64      // adaption factor in (0, 1]
	combined bool         // did this operation combine at least once?
	units    bool         // every member of this tree is a ±1 operation
}

type childRef struct {
	rec *funnelRec
	sum int64
}

// funnel is the shared combining machinery used by both the counter and
// the stack: layers in simulated memory plus per-processor records.
type funnel struct {
	params FunnelParams
	layers []sim.Addr // one array per layer
	recs   []*funnelRec

	// Host-side internals counters (no simulated cost): how collision
	// passes resolved. The paper's mechanisms — combining and elimination
	// rates — are read from these.
	stats funnelStats
}

// funnelStats counts collision-protocol outcomes.
type funnelStats struct {
	passes       int64 // collide calls
	attempts     int64 // layer slots probed (swaps)
	combines     int64 // another record captured into this tree
	captured     int64 // this record captured by another tree
	eliminations int64 // reversing trees met and short-cut
	bypasses     int64 // low-load shortcuts straight to the central object
}

// Metrics reports collision-protocol counters plus the summed adaption
// factor over this funnel's processor records ("adaption_factor_sum" /
// "records"; aggregate with Metrics.finishFactor).
func (f *funnel) Metrics() Metrics {
	var factorSum float64
	for _, r := range f.recs {
		factorSum += r.factor
	}
	return Metrics{
		"passes":              float64(f.stats.passes),
		"attempts":            float64(f.stats.attempts),
		"combines":            float64(f.stats.combines),
		"captured":            float64(f.stats.captured),
		"eliminations":        float64(f.stats.eliminations),
		"bypasses":            float64(f.stats.bypasses),
		"adaption_factor_sum": factorSum,
		"records":             float64(len(f.recs)),
	}
}

func newFunnel(m *sim.Machine, params FunnelParams) *funnel {
	f := &funnel{
		params: params,
		layers: make([]sim.Addr, params.levels()),
		recs:   make([]*funnelRec, m.Procs()),
	}
	for l, w := range params.Widths {
		f.layers[l] = m.Alloc(w)
		m.Label(f.layers[l], w, "funnel.layer")
	}
	// One slab of records, and one backing array each for every record's
	// members and children. A tree at layer d has 2^d members and d
	// children; each record's share holds a tree of layer 2, and a record
	// whose tree outgrows it grows a private array once and keeps it (the
	// three-index slices stop an append from spilling into a neighbour's
	// share). Shares sized for the deepest layer (32 members at 256
	// processors) cost sim_fig7 a fifth more set-up time.
	const mcap, ccap = 4, 2
	slab := make([]funnelRec, len(f.recs))
	members := make([]*funnelRec, len(f.recs)*mcap)
	children := make([]childRef, len(f.recs)*ccap)
	for i := range f.recs {
		r := &slab[i]
		*r = funnelRec{
			addr:     m.Alloc(frWords),
			factor:   1,
			members:  members[i*mcap : i*mcap : (i+1)*mcap],
			children: children[i*ccap : i*ccap : (i+1)*ccap],
		}
		f.recs[i] = r
	}
	if len(f.recs) > 0 {
		m.Label(f.recs[0].addr, frWords*len(f.recs), "funnel.records")
	}
	return f
}

func locCode(layer int) uint64 { return uint64(layer) + 1 }

// collideOutcome describes how one pass through the combining layers ended.
type collideOutcome int

const (
	outExit         collideOutcome = iota // exited the funnel; may apply centrally
	outCaptured                           // collided with; wait for a result
	outEliminated                         // met a reversing operation
	outIncompatible                       // captured a reversing tree it cannot pair with
)

// collide runs the collision protocol of Figure 10 (lines 4..27) for the
// processor's current operation, starting at layer start (nonzero after a
// failed central attempt, so the tree keeps its size-per-layer
// invariant). On outEliminated, other is the captured opposite-direction
// record (the caller completes the elimination). The returned layer is the
// layer the processor stopped at, and newSum the possibly grown tree sum.
func (f *funnel) collide(p *sim.Proc, my *funnelRec, mySum int64, eliminate bool, start int) (outcome collideOutcome, other *funnelRec, layer int, newSum int64) {
	f.stats.passes++
	t0 := p.Now()
	defer p.AppSpan(sim.PhaseCombining, t0)
	levels := f.params.levels()
	attempts := f.params.Attempts
	if f.params.Adaptive {
		attempts = scaleInt(attempts, my.factor)
	}

	if f.params.Adaptive && my.factor <= 0.2 && start == 0 && !my.combined {
		// Under persistently low load, skip the funnel entirely and go
		// straight for the central object ("under low load there is no
		// contention so it is better to simply apply the operation and be
		// done", Section 3.1). Central contention revives the factor, so
		// this is self-correcting.
		f.stats.bypasses++
		return outExit, nil, 0, mySum
	}
	d := start
	for n := 0; n < attempts && d < levels; n++ {
		width, linger := f.params.Widths[d], f.params.Spin[d]
		if f.params.Adaptive {
			// The linger scales with the factor too: a processor that
			// never collides stops paying to wait (decay is gentle, so
			// one miss under real load barely moves it).
			width = scaleInt(width, my.factor)
			linger = max(int64(float64(linger)*my.factor), 1)
		}
		slot := sim.Addr(p.Rand(width))
		f.stats.attempts++
		qv := p.Swap(f.layers[d]+slot, uint64(p.ID())+1)
		if qv != 0 && int(qv-1) != p.ID() {
			q := f.recs[qv-1]
			if !p.CAS(my.addr+frLocation, locCode(d), 0) {
				f.stats.captured++
				return outCaptured, nil, d, mySum
			}
			if p.CAS(q.addr+frLocation, locCode(d), 0) {
				qSum := int64(p.Read(q.addr + frSum))
				if eliminate && qSum+mySum == 0 && my.units && q.units {
					// Only all-unit trees pair off: their members interleave
					// one-for-one. Multi-unit members would need partial
					// cancellation, which distribution cannot express.
					f.stats.eliminations++
					my.combined = true // elimination is a productive collision
					return outEliminated, q, d, mySum
				}
				if eliminate && (qSum < 0) != (mySum < 0) {
					// Bounded operations of opposite sign do not commute, so
					// reversing trees that cannot eliminate must not combine.
					// The captured tree is handed to the caller, who applies
					// it centrally on its behalf.
					return outIncompatible, q, d, mySum
				}
				// Trees at the same layer have the same size, so a
				// same-direction collision is always a legal combine; with
				// elimination disabled (unbounded mode) any collision
				// combines, since unbounded fetch-and-add commutes.
				f.stats.combines++
				mySum += qSum
				p.Write(my.addr+frSum, uint64(mySum))
				my.children = append(my.children, childRef{rec: q, sum: qSum})
				my.members = append(my.members, q.members...)
				my.combined = true
				my.units = my.units && q.units
				d++
				p.Write(my.addr+frLocation, locCode(d))
				n = -1 // restart attempt count at the new layer
				continue
			}
			p.Write(my.addr+frLocation, locCode(d))
		}
		// Linger, hoping to be collided with (lines 25-26).
		p.LocalWork(linger)
		if p.Read(my.addr+frLocation) != locCode(d) {
			f.stats.captured++
			return outCaptured, nil, d, mySum
		}
	}
	return outExit, nil, d, mySum
}

func scaleInt(v int, factor float64) int {
	s := int(float64(v) * factor)
	if s < 1 {
		return 1
	}
	return s
}

// adapt updates the processor's local funnel-usage factor from the
// outcome of the completed operation.
func (my *funnelRec) adapt(enabled bool) {
	if !enabled {
		return
	}
	if my.combined {
		my.factor *= 1.4
		if my.factor > 1 {
			my.factor = 1
		}
	} else {
		// Decay gently: one missed collision under real load must not
		// spiral the processor out of the funnel (shorter linger means
		// even fewer collisions).
		my.factor *= 0.85
		if my.factor < 0.15 {
			my.factor = 0.15
		}
	}
}

// begin resets the processor's record for a new operation with the given
// sum. The result word is cleared before the record becomes visible in a
// layer.
func (f *funnel) begin(p *sim.Proc, sum int64) *funnelRec {
	my := f.recs[p.ID()]
	my.children = my.children[:0]
	my.members = append(my.members[:0], my)
	my.combined = false
	my.units = sum == 1 || sum == -1
	p.Write(my.addr+frResult, 0)
	p.Write(my.addr+frSum, uint64(sum))
	p.Write(my.addr+frLocation, locCode(0))
	return my
}

// awaitResult blocks until a parent delivers this record's result.
func awaitResult(p *sim.Proc, my *funnelRec) (elim bool, fail bool, value uint64) {
	v := p.Read(my.addr + frResult)
	for v == 0 {
		v = p.WaitWhile(my.addr+frResult, 0)
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
