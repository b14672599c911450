package simpq

import (
	"pq/internal/funnel"
	"pq/internal/sim"
)

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

// funnelRec is one processor's funnel record; its words are the
// simulated words at its address. Purely private bookkeeping (children,
// members, adaption state) stays on the host, as private cached data
// would on a real machine.
type funnelRec = funnel.Rec[sim.Addr]

// funnelLeaf is the simulated twin's leaf of the combining-funnel
// protocol (internal/funnel), shared by FunnelCounter and FunnelStack:
// layers and per-processor records in simulated memory, waits that cost
// cycles, and host-side stats that cost none.
type funnelLeaf struct {
	layers []sim.Addr // one array per layer
	recs   []*funnelRec

	// Host-side internals counters (no simulated cost): how collision
	// passes resolved. The paper's mechanisms — combining and elimination
	// rates — are read from these.
	stats funnelStats
}

// funnelStats counts collision-protocol outcomes.
type funnelStats struct {
	passes       int64 // collision passes
	attempts     int64 // layer slots probed (swaps)
	combines     int64 // another record captured into this tree
	captured     int64 // this record captured by another tree
	eliminations int64 // reversing trees met and short-cut
	bypasses     int64 // low-load shortcuts straight to the central object
}

// Metrics reports collision-protocol counters plus the summed adaption
// factor over this funnel's processor records ("adaption_factor_sum" /
// "records"; aggregate with Metrics.finishFactor).
func (f *funnelLeaf) Metrics() Metrics {
	var factorSum float64
	for _, r := range f.recs {
		factorSum += r.Factor()
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

// newFunnel allocates the layers, then one record per processor.
func newFunnel(m *sim.Machine, params FunnelParams) *funnelLeaf {
	f := &funnelLeaf{layers: make([]sim.Addr, params.levels())}
	for l, w := range params.Widths {
		f.layers[l] = m.Alloc(w)
		m.Label(f.layers[l], w, "funnel.layer")
	}
	addrs := make([]sim.Addr, m.Procs())
	for i := range addrs {
		addrs[i] = m.Alloc(frWords)
	}
	f.recs = funnel.NewRecs(addrs)
	if len(addrs) > 0 {
		m.Label(addrs[0], frWords*len(addrs), "funnel.records")
	}
	return f
}

// protocol returns the collision layers of params over leaf, which
// embeds f.
func protocol[L funnel.Leaf[*sim.Proc, sim.Addr]](leaf L, params FunnelParams) funnel.Protocol[*sim.Proc, sim.Addr, L] {
	return funnel.NewProtocol[*sim.Proc, sim.Addr](leaf, params.Widths, params.Attempts, params.Spin, params.Adaptive)
}

func (f *funnelLeaf) Record(p *sim.Proc) *funnelRec { return f.recs[p.ID()] }
func (f *funnelLeaf) Release(*sim.Proc, *funnelRec) {}

// Swap draws the slot with p.Rand and stores the processor's id+1 in it;
// 0 is an empty slot.
func (f *funnelLeaf) Swap(p *sim.Proc, layer, width int, _ *funnelRec) *funnelRec {
	slot := sim.Addr(p.Rand(width))
	f.stats.attempts++
	qv := p.Swap(f.layers[layer]+slot, uint64(p.ID())+1)
	if qv == 0 {
		return nil
	}
	return f.recs[qv-1]
}

func (f *funnelLeaf) CASLocation(p *sim.Proc, r *funnelRec, old, new uint64) bool {
	return p.CAS(r.Words+frLocation, old, new)
}

func (f *funnelLeaf) StoreLocation(p *sim.Proc, r *funnelRec, v uint64) {
	p.Write(r.Words+frLocation, v)
}

func (f *funnelLeaf) LoadSum(p *sim.Proc, r *funnelRec) int64 { return int64(p.Read(r.Words + frSum)) }

func (f *funnelLeaf) StoreSum(p *sim.Proc, r *funnelRec, v int64) {
	p.Write(r.Words+frSum, uint64(v))
}

func (f *funnelLeaf) StoreResult(p *sim.Proc, r *funnelRec, v uint64) {
	p.Write(r.Words+frResult, v)
}

// AwaitResult blocks until a parent delivers r's result.
func (f *funnelLeaf) AwaitResult(p *sim.Proc, r *funnelRec) uint64 {
	v := p.Read(r.Words + frResult)
	for v == 0 {
		v = p.WaitWhile(r.Words+frResult, 0)
	}
	return v
}

// Linger works locally for n cycles, then reads r's location once.
func (f *funnelLeaf) Linger(p *sim.Proc, r *funnelRec, loc uint64, n int64) bool {
	p.LocalWork(n)
	return p.Read(r.Words+frLocation) != loc
}

// Backoff works locally for a random 20-39 cycles, doubled per earlier
// failure up to 32 times.
func (f *funnelLeaf) Backoff(p *sim.Proc, fails int) {
	p.LocalWork(int64((20 + p.Rand(20)) << uint(min(fails, 5))))
}

// PassStart and PassEnd count the pass and record it as a combining span.
func (f *funnelLeaf) PassStart(p *sim.Proc) int64 {
	f.stats.passes++
	return p.Now()
}

func (f *funnelLeaf) PassEnd(p *sim.Proc, t0 int64) { p.AppSpan(sim.PhaseCombining, t0) }

// count records the funnel's share of an event.
func (f *funnelLeaf) count(e funnel.Event) {
	switch e {
	case funnel.Bypass:
		f.stats.bypasses++
	case funnel.Combine:
		f.stats.combines++
	case funnel.Capture:
		f.stats.captured++
	case funnel.Eliminate:
		f.stats.eliminations++
	}
}
