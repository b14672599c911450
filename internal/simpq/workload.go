package simpq

import (
	"fmt"
	"slices"

	"pq/internal/core"
	"pq/internal/obs"
	"pq/internal/order"
	"pq/internal/sim"
	"pq/internal/stats"
)

// WorkloadConfig describes the paper's synthetic benchmark: processors
// alternate between a small constant amount of local work and a queue
// access, choosing insert or delete-min by an unbiased coin flip; the
// queue starts empty; latency is the average number of cycles per access.
type WorkloadConfig struct {
	// OpsPerProc is the number of queue accesses each processor performs.
	OpsPerProc int
	// LocalWork is the cycles of private work between accesses.
	LocalWork int64
	// InsertFraction is the probability an access is an insert (the paper
	// uses an unbiased coin, 0.5).
	InsertFraction float64
	// Prefill inserts this many items (spread across processors) before
	// measurement begins. The paper's experiments use 0.
	Prefill int
	// Seed overrides the machine seed when nonzero.
	Seed int64
	// KeepLatencies records every operation's latency so Result carries
	// full distributions, not just means.
	KeepLatencies bool
	// Batch sets the operations per queue access: each of the OpsPerProc
	// accesses becomes one InsertBatch/DeleteMinBatch call of this many
	// elements (0 and 1 both mean plain single operations). Latency
	// samples and the Inserts/Deletes totals count individual elements,
	// so results stay comparable across batch sizes.
	Batch int
}

// DefaultWorkload returns the configuration used for the paper's queue
// experiments.
func DefaultWorkload() WorkloadConfig {
	return WorkloadConfig{OpsPerProc: 60, LocalWork: 50, InsertFraction: 0.5}
}

// Validate rejects configurations that would otherwise produce a silent
// no-op or a mid-run panic: chaos sweeps that compute a bad parameter
// should fail loudly and up front.
func (cfg WorkloadConfig) Validate() error {
	switch {
	case cfg.OpsPerProc < 1:
		return fmt.Errorf("simpq: OpsPerProc must be >= 1, got %d (a zero-op workload measures nothing)", cfg.OpsPerProc)
	case cfg.LocalWork < 0:
		return fmt.Errorf("simpq: LocalWork must be >= 0, got %d", cfg.LocalWork)
	case cfg.InsertFraction < 0 || cfg.InsertFraction > 1:
		return fmt.Errorf("simpq: InsertFraction must be in [0,1], got %g", cfg.InsertFraction)
	case cfg.Prefill < 0:
		return fmt.Errorf("simpq: Prefill must be >= 0, got %d", cfg.Prefill)
	case cfg.Batch < 0:
		return fmt.Errorf("simpq: Batch must be >= 0, got %d (use 0 or 1 for single operations)", cfg.Batch)
	case cfg.Batch > 1024:
		return fmt.Errorf("simpq: Batch must be <= 1024, got %d", cfg.Batch)
	}
	return nil
}

// Result aggregates a workload run.
type Result struct {
	// MeanAll, MeanInsert and MeanDelete are average latencies in cycles.
	MeanAll, MeanInsert, MeanDelete float64
	// Inserts and Deletes count completed operations; FailedDeletes are
	// delete-min calls that found the queue (apparently) empty.
	Inserts, Deletes, FailedDeletes int
	// Stats carries the simulator's run summary.
	Stats sim.Stats
	// AllSummary, InsertSummary and DeleteSummary are full latency
	// distributions, populated when WorkloadConfig.KeepLatencies is set.
	AllSummary, InsertSummary, DeleteSummary stats.Summary
	// InsertHist and DeleteHist are per-operation latency histograms
	// (see latencyHist), populated when KeepLatencies is set.
	InsertHist, DeleteHist obs.HistSnapshot
	// Internals carries the queue's mechanism counters (combines,
	// eliminations, lock waits, scan lengths...) when it implements
	// MetricsSource; nil otherwise.
	Internals Metrics
}

// latencyHist buckets per-operation latencies by powers of two from
// 2^7 to 2^19 cycles. An MCS hand-off costs a few remote accesses
// (~hundreds of cycles), so the range spans "uncontended" to "convoyed
// behind hundreds of peers".
func latencyHist(lat []float64) obs.HistSnapshot {
	h := obs.NewHistogram(1, 7, 19)
	for _, v := range lat {
		h.Observe(0, int64(v))
	}
	return h.Snapshot()
}

// barrier is a sense-free arrival barrier on simulated memory for the
// prefill/measure phase split.
type barrier struct {
	count sim.Addr
	procs uint64
}

func newBarrier(m *sim.Machine) *barrier {
	b := &barrier{count: m.Alloc(1), procs: uint64(m.Procs())}
	m.Label(b.count, 1, "workload.barrier")
	return b
}

func (b *barrier) wait(p *sim.Proc, phase uint64) {
	target := phase * b.procs
	p.FetchAdd(b.count, 1)
	for {
		v := p.Read(b.count)
		if v >= target {
			return
		}
		if w := p.WaitWhile(b.count, v); w >= target {
			return
		}
	}
}

// RunWorkload builds the named queue on a fresh machine and drives the
// paper's benchmark on every processor.
func RunWorkload(alg Algorithm, procs, npri int, cfg WorkloadConfig) (Result, error) {
	r, _, err := WorkloadOnMachine(alg, npri, cfg, sim.DefaultConfig(procs), 0)
	return r, err
}

// WorkloadOnMachine runs the benchmark with a fully custom machine
// configuration — the entry point for cost-model sensitivity studies —
// and returns the topN hottest words when simCfg.Profile is set.
func WorkloadOnMachine(alg Algorithm, npri int, cfg WorkloadConfig, simCfg sim.Config, topN int) (Result, []sim.HotSpot, error) {
	m, q, err := buildRun(alg, npri, cfg, simCfg)
	if err != nil {
		return Result{}, nil, err
	}
	r, err := DriveWorkload(m, q, cfg)
	if err != nil {
		return Result{}, nil, err
	}
	return r, m.HotSpots(topN), nil
}

// buildRun is the one build path of the named-algorithm drivers: it
// validates the inputs, applies cfg.Seed to simCfg, and builds the
// machine and alg's queue sized by capacity.
func buildRun(alg Algorithm, npri int, cfg WorkloadConfig, simCfg sim.Config) (*sim.Machine, Queue, error) {
	if !slices.Contains(core.All(), alg) {
		return nil, nil, fmt.Errorf("simpq: unknown algorithm %q", alg)
	}
	if npri < 1 {
		return nil, nil, fmt.Errorf("simpq: priorities must be >= 1, got %d", npri)
	}
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if cfg.Seed != 0 {
		simCfg.Seed = cfg.Seed
	}
	m, err := sim.New(simCfg)
	if err != nil {
		return nil, nil, err
	}
	return m, Build(alg, m, npri, capacity(m.Procs(), cfg)), nil
}

// capacity is the most elements a run of cfg on procs processors can
// hold at once: every measured access an insert of max(Batch,1)
// elements, on top of the prefill.
func capacity(procs int, cfg WorkloadConfig) int {
	return procs*cfg.OpsPerProc*max(cfg.Batch, 1) + cfg.Prefill + 1
}

// DriveWorkload runs the benchmark against an already built queue. It is
// split from RunWorkload so harness code can drive custom configurations
// (ablations, different funnel parameters).
func DriveWorkload(m *sim.Machine, q Queue, cfg WorkloadConfig) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	tallies, st, err := runMix(m, q, cfg, &recorder{})
	if err != nil {
		return Result{}, err
	}
	return summarize(tallies, st, q, cfg.KeepLatencies), nil
}

// SojournResult reports how long delivered items sat in the queue —
// the fairness measure behind the paper's Section 3.2 stack-vs-FIFO
// discussion (LIFO bins can starve old items of equal priority).
type SojournResult struct {
	// Latency is the usual access-latency result.
	Latency Result
	// Sojourn summarizes (delete time - insert time) over delivered
	// items, in cycles.
	Sojourn stats.Summary
}

// SojournWorkload drives the standard benchmark against q, stamping each
// inserted value with its insertion cycle so deletions can measure how
// long items waited.
func SojournWorkload(m *sim.Machine, q Queue, cfg WorkloadConfig) (SojournResult, error) {
	if err := cfg.Validate(); err != nil {
		return SojournResult{}, err
	}
	rec := &recorder{sojourns: make([][]float64, m.Procs())}
	tallies, st, err := runMix(m, q, cfg, rec)
	if err != nil {
		return SojournResult{}, err
	}
	var all []float64
	for _, s := range rec.sojourns {
		all = append(all, s...)
	}
	return SojournResult{Latency: summarize(tallies, st, q, cfg.KeepLatencies), Sojourn: stats.Summarize(all)}, nil
}

// kindTally totals one processor's elements of one kind of access.
type kindTally struct {
	cycles int64
	n      int
	// lat holds per-element latencies when KeepLatencies is set.
	lat []float64
}

// procTally is one processor's share of a run's operation totals.
type procTally struct {
	ins, del kindTally
	failed   int
	// done is set once the processor has finished all its operations.
	done bool
}

// recorder is what differs between the drivers sharing runMix: the
// value an insert stamps, what each completed operation records beyond
// the latency tally, whether a start barrier runs and whether prefill
// inserts are recorded. DriveWorkload's zero recorder stamps id<<32|i
// and records latency only. Per-processor slices are indexed by
// processor id and touched only by that processor's program.
type recorder struct {
	// noBarrier drops the start barrier between the prefill and the
	// measured mix, and recordPrefill tallies and records the prefill
	// inserts like measured ones.
	noBarrier, recordPrefill bool
	// sojourns, when non-nil, collects each delivered item's wait in
	// cycles; inserts stamp their insertion cycle.
	sojourns [][]float64
	// history, when non-nil, collects every operation and pending holds
	// each processor's operation in flight; inserts stamp ChaosVal.
	history [][]order.Op
	pending []order.PendingOp
}

// stamp is the value of the seq-th element processor id inserts, with
// priority pri, at cycle now; serial is its index in DriveWorkload's
// numbering.
func (rec *recorder) stamp(id, pri, seq int, serial uint64, now int64) uint64 {
	switch {
	case rec.sojourns != nil:
		return uint64(now)
	case rec.history != nil:
		return ChaosVal(pri, id, seq)
	}
	return uint64(id)<<32 | serial
}

// begin marks an operation of processor id in flight from cycle start:
// the insert of it or, with it zero, a delete-min. A zero Kind in
// pending means no operation is in flight.
func (rec *recorder) begin(id int, kind order.Kind, it BatchItem, start int64) {
	if rec.pending != nil {
		rec.pending[id] = order.PendingOp{Kind: kind, Pri: it.Pri, Val: it.Val, Start: start}
	}
}

// record notes a completed operation of processor id spanning start to
// end: items are the elements it inserted or delivered.
func (rec *recorder) record(id int, kind order.Kind, items []BatchItem, start, end int64) {
	if rec.sojourns != nil && kind == order.DeleteMin {
		for _, it := range items {
			rec.sojourns[id] = append(rec.sojourns[id], float64(end-int64(it.Val)))
		}
	}
	if rec.history != nil {
		op := order.Op{Kind: kind, OK: len(items) > 0, Start: start, End: end}
		if op.OK {
			op.Pri, op.Val = ChaosPri(items[0].Val), items[0].Val
		}
		rec.history[id] = append(rec.history[id], op)
		rec.pending[id] = order.PendingOp{}
	}
}

// runMix is the paper's benchmark, the one loop every driver runs: each
// processor inserts its share of cfg.Prefill, waits at the start barrier
// unless rec drops it, and then performs cfg.OpsPerProc accesses, each
// LocalWork followed by a coin-flip insert or
// delete-min of max(Batch,1) elements. It returns each processor's
// tally; the error is the simulator's terminal state.
func runMix(m *sim.Machine, q Queue, cfg WorkloadConfig, rec *recorder) ([]procTally, sim.Stats, error) {
	procs, npri := m.Procs(), q.NumPriorities()
	var bar *barrier
	if !rec.noBarrier {
		bar = newBarrier(m)
	}
	batch := max(cfg.Batch, 1)
	tallies := make([]procTally, procs)
	st, err := m.Run(func(p *sim.Proc) {
		id := p.ID()
		t := &tallies[id]
		var items []BatchItem
		seq := 0
		// finish tallies and records an access of n elements begun at
		// start; elems are the elements it inserted or delivered.
		finish := func(kind order.Kind, elems []BatchItem, n int, start int64) {
			kt, span := &t.ins, "insert"
			if kind == order.DeleteMin {
				kt, span = &t.del, "deletemin"
				t.failed += n - len(elems)
			}
			p.OpSpan(span, start)
			end := p.Now()
			kt.cycles += end - start
			kt.n += n
			if cfg.KeepLatencies {
				for range n {
					kt.lat = append(kt.lat, float64(end-start)/float64(n))
				}
			}
			rec.record(id, kind, elems, start, end)
			p.OpDone()
		}
		// insert adds n elements; serial numbers the first in
		// DriveWorkload's stamps. An unrecorded insert (a prefill the
		// recorder skips) is neither tallied nor reported.
		insert := func(n int, serial uint64, recorded bool) {
			start := p.Now()
			items = items[:0]
			for j := range n {
				pri := p.Rand(npri)
				items = append(items, BatchItem{Pri: pri, Val: rec.stamp(id, pri, seq, serial+uint64(j), start)})
				seq++
			}
			if recorded {
				rec.begin(id, order.Insert, items[0], start)
			}
			if n == 1 {
				q.Insert(p, items[0].Pri, items[0].Val)
			} else {
				InsertBatch(p, q, items)
			}
			if recorded {
				finish(order.Insert, items, n, start)
			}
		}
		deleteMin := func(n int) {
			start := p.Now()
			rec.begin(id, order.DeleteMin, BatchItem{}, start)
			var got []BatchItem
			if n == 1 {
				if v, ok := q.DeleteMin(p); ok {
					got = append(items[:0], BatchItem{Pri: -1, Val: v})
				}
			} else {
				got = DeleteMinBatch(p, q, n)
			}
			finish(order.DeleteMin, got, n, start)
		}

		share := cfg.Prefill / procs
		if id < cfg.Prefill%procs {
			share++
		}
		for i := range share {
			insert(1, uint64(i)|1<<60, rec.recordPrefill)
		}
		if bar != nil {
			bar.wait(p, 1)
		}
		for i := range cfg.OpsPerProc {
			p.LocalWork(cfg.LocalWork)
			if float64(p.Rand(1<<16))/(1<<16) < cfg.InsertFraction {
				insert(batch, uint64(i*batch), true)
			} else {
				deleteMin(batch)
			}
		}
		t.done = true
	})
	return tallies, st, err
}

// summarize folds the per-processor tallies of a run on q into a
// Result; keep adds the latency distributions.
func summarize(tallies []procTally, st sim.Stats, q Queue, keep bool) Result {
	r := Result{Stats: st, Internals: MetricsOf(q)}
	var insCycles, delCycles int64
	var ins, del []float64
	for i := range tallies {
		t := &tallies[i]
		insCycles += t.ins.cycles
		delCycles += t.del.cycles
		r.Inserts += t.ins.n
		r.Deletes += t.del.n
		r.FailedDeletes += t.failed
		ins = append(ins, t.ins.lat...)
		del = append(del, t.del.lat...)
	}
	if r.Inserts > 0 {
		r.MeanInsert = float64(insCycles) / float64(r.Inserts)
	}
	if r.Deletes > 0 {
		r.MeanDelete = float64(delCycles) / float64(r.Deletes)
	}
	if n := r.Inserts + r.Deletes; n > 0 {
		r.MeanAll = float64(insCycles+delCycles) / float64(n)
	}
	if keep {
		r.InsertSummary = stats.Summarize(ins)
		r.DeleteSummary = stats.Summarize(del)
		r.AllSummary = stats.Summarize(append(append([]float64(nil), ins...), del...))
		r.InsertHist = latencyHist(ins)
		r.DeleteHist = latencyHist(del)
	}
	return r
}

// CounterWorkload drives Figure 5's counter benchmark: every processor
// performs ops operations on one shared funnel counter, each a decrement
// with probability decFraction and an increment otherwise. When bounded is
// false the counter is the plain combining-funnel fetch-and-add baseline.
func CounterWorkload(procs int, ops int, decFraction float64, bounded bool, localWork int64) (Result, error) {
	simCfg := sim.DefaultConfig(procs)
	m, err := sim.New(simCfg)
	if err != nil {
		return Result{}, err
	}
	c := NewFunnelCounter(m, DefaultFunnelParams(procs), bounded, 0)
	// Start high enough that a bounded counter under a decrement-heavy
	// mix does not sit pinned at the bound.
	m.SetWord(c.main, uint64(procs*ops))

	cycles := make([]int64, procs)
	counts := make([]int, procs)
	simStats, err := m.Run(func(p *sim.Proc) {
		id := p.ID()
		for i := 0; i < ops; i++ {
			p.LocalWork(localWork)
			start := p.Now()
			if float64(p.Rand(1<<16))/(1<<16) < decFraction {
				c.BFaD(p)
			} else {
				c.FaI(p)
			}
			cycles[id] += p.Now() - start
			counts[id]++
		}
	})
	if err != nil {
		return Result{}, err
	}
	var total int64
	var n int
	for i := range cycles {
		total += cycles[i]
		n += counts[i]
	}
	return Result{MeanAll: float64(total) / float64(n), Stats: simStats}, nil
}
