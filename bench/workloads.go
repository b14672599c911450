package main

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"
)

// runParams is what the command line fixes for one run.
type runParams struct {
	seed    uint64
	seconds float64 // length of the timed part, warm-up included
	tmp     string  // scratch root, inside the checkout
}

// probeDur is how long one per-layer probe measures at this run length.
func (p runParams) probeDur() time.Duration {
	return max(time.Duration(p.seconds/40*float64(time.Second)), 10*time.Millisecond)
}

// runOutput is what one workload run measured.
type runOutput struct {
	e2e       map[string]float64
	layer     map[string]float64 // per-layer values this run measured itself
	attempted int64
	failed    int64
	problems  []string // why failed is not zero
	notes     []string // spreads, sample counts, load shape
}

func newRunOutput() *runOutput {
	return &runOutput{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (o *runOutput) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// loadSpec describes a wall-clock workload.
type loadSpec struct {
	setup       func(p runParams) (*env, error)
	callers     int
	sampleEvery int     // time every n-th op (power of two)
	rate        float64 // ops/s for an open loop; 0 runs a closed loop
}

func loadSpecFor(name string) (loadSpec, bool) {
	nproc := runtime.GOMAXPROCS(0)
	serve := func(durable bool) func(runParams) (*env, error) {
		return func(p runParams) (*env, error) { return newServeEnv(p, durable, nproc) }
	}
	switch name {
	case "native_mixed":
		// 1-in-16 sampling keeps the two clock reads under a tenth of an op.
		return loadSpec{setup: func(runParams) (*env, error) { return newNativeEnv() }, callers: nproc, sampleEvery: 16}, true
	case "serve_pipelined":
		return loadSpec{setup: serve(false), callers: nproc * callersPer, sampleEvery: 1}, true
	case "serve_open":
		return loadSpec{setup: serve(false), callers: openWorkers, sampleEvery: 1, rate: serveOpenRate}, true
	case "serve_durable":
		return loadSpec{setup: serve(true), callers: nproc * callersPer, sampleEvery: 1}, true
	case "cluster_2node":
		return loadSpec{setup: func(p runParams) (*env, error) { return newClusterEnv(p.seed) }, callers: 2 * callersPer, sampleEvery: 1}, true
	}
	return loadSpec{}, false
}

func prefillIDs(seed uint64, n int) []uint64 {
	r := rng(mix64(seed ^ 0x70726566696c6c))
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = makeID(prefillCaller, uint64(i), r.intn(priorities))
	}
	return ids
}

// medianSetup runs setup several times and returns the median of the
// times it took: at least 9 times, and more (up to 25) while that takes
// under half a second of a 12-second run, so that a cheap set-up is not
// timed from a few samples. Whatever the last call set up is kept.
func medianSetup(p runParams, setup func() error) (float64, error) {
	var times []float64
	for total := 0.0; len(times) < 25 && (len(times) < 9 || total < p.seconds/24); {
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		el := time.Since(t0).Seconds()
		times = append(times, el)
		total += el
	}
	return median(times), nil
}

// warmShare is the share of a run's --seconds spent warming up; the rest
// is split evenly over the segments.
const warmShare = 1.0 / 6

// runLoad runs one wall-clock workload: repeated set-up, warm-up, the
// timed segments, then drain, audit and order probe.
func runLoad(p runParams, ls loadSpec) (*runOutput, error) {
	prefill := prefillIDs(p.seed, prefillN)
	var e *env
	defer func() {
		if e != nil {
			e.close()
		}
	}()
	setupS, err := medianSetup(p, func() (err error) {
		if e != nil {
			e.close()
		}
		if e, err = ls.setup(p); err != nil {
			return err
		}
		return e.prefill(prefill)
	})
	if err != nil {
		return nil, err
	}

	shared := &recorder{}
	streams := make([]opStream, ls.callers)
	callers := make([]caller, ls.callers)
	recs := make([]*callerRec, ls.callers)
	for i := range recs {
		streams[i] = genStream(p.seed, i, streamLen, priorities)
		callers[i] = e.caller()
		recs[i] = &callerRec{shared: shared}
	}

	runtime.GC()
	clk := newWallClock()
	warmNs := int64(p.seconds * warmShare * 1e9)
	segNs := int64(p.seconds * (1 - warmShare) / nSegments * 1e9)
	bounds := slotBounds(clk.Now()+int64(time.Millisecond), warmNs, segNs)
	var sc segClock
	mem0 := readMem()
	if ls.rate > 0 {
		sched := newOpenSchedule(bounds, ls.rate)
		var started atomic.Int64
		// The buffer lets the pacer run ahead of busy callers; a full
		// buffer only delays releases, which the due-time clock still sees.
		ready := make(chan int64, 4096)
		runCallers(ls.callers+1, func(i int) {
			if i == ls.callers {
				pace(kernelClock{clk}, &sched, ready)
				return
			}
			openLoop(clk, &sched, callers[i], streams[0], i, ready, &started, recs[i])
		}, func() { sc.run(clk, bounds) })
	} else {
		runCallers(ls.callers, func(i int) {
			closedLoop(clk, &sc, callers[i], streams[i], i, ls.sampleEvery, recs[i])
		}, func() { sc.run(clk, bounds) })
	}
	mem1 := readMem()

	out := newRunOutput()
	out.e2e["setup_s"] = setupS
	out.e2e["mem_mb"] = float64(mem1.sys) / (1 << 20)
	out.notef("load: %d connections, %d callers, %s; %.2f s warm-up, %d segments of %.0f ms",
		e.conns, ls.callers, loopShape(ls), float64(warmNs)/1e9, nSegments, float64(segNs)/1e6)

	var total slotCounts
	var acked, delivered multiset
	for _, id := range prefill {
		acked.add(id)
	}
	var backlogMax int64
	for _, r := range recs {
		for _, c := range r.counts {
			for o, n := range c {
				total[o] += n
			}
		}
		acked.merge(r.acked)
		delivered.merge(r.delivered)
		backlogMax = max(backlogMax, r.backlogMax)
	}

	// Per-segment series; each reported value is the better decile of its
	// series (see bestDecile).
	series := map[string][]float64{}
	add := func(name string, v float64) { series[name] = append(series[name], v) }
	var whole segHists
	minSamples := [2]uint64{math.MaxUint64, math.MaxUint64}
	for seg := 0; seg < nSegments; seg++ {
		var done int64
		for _, r := range recs {
			done += r.counts[seg+1].done()
		}
		// A closed loop files ops under the slot the controller had
		// published; an open loop files them by the schedule's bounds.
		dur := float64(sc.flips[seg+2]-sc.flips[seg+1]) / 1e9
		if ls.rate > 0 {
			dur = float64(bounds[seg+2]-bounds[seg+1]) / 1e9
			add("achieved", float64(done)/dur/ls.rate)
		}
		add("ops_per_s", float64(done)/dur)
		add("cpu_us_per_op", (sc.cpu[seg+2]-sc.cpu[seg+1])/float64(max(done, 1)))
		// A segment too short to have timed any op of a kind (a smoke
		// run's) has no percentile of it to offer.
		h := &shared.segs[seg]
		if h[kInsert].n > 0 {
			add("insert_p50_us", h[kInsert].Quantile(0.50)/1e3)
			add("insert_p99_us", h[kInsert].Quantile(0.99)/1e3)
		}
		if h[kDelete].n > 0 {
			add("delete_p50_us", h[kDelete].Quantile(0.50)/1e3)
			add("delete_p99_us", h[kDelete].Quantile(0.99)/1e3)
		}
		for k := range whole {
			whole[k].Merge(&h[k])
		}
		minSamples[kInsert] = min(minSamples[kInsert], h[kInsert].n)
		minSamples[kDelete] = min(minSamples[kDelete], h[kDelete].n)
	}
	out.reportSeries(series, fmt.Sprintf("%d segments", nSegments))
	out.notef("latency samples per segment: at least %d inserts (supports p%g), %d delete-mins (p%g)",
		minSamples[kInsert], 100*topQuantile(minSamples[kInsert]), minSamples[kDelete], 100*topQuantile(minSamples[kDelete]))
	if !supported(minSamples[kInsert], 0.99) || !supported(minSamples[kDelete], 0.99) {
		out.notef("WARNING: fewer than ten samples lie beyond p99 in some segment; p99 is under-sampled at this run length")
	}
	out.notef("whole timed part: insert p99 %.1f us, p99.9 %.1f us, max %.1f us; delete-min p99 %.1f us, p99.9 %.1f us, max %.1f us",
		whole[kInsert].Quantile(0.99)/1e3, whole[kInsert].Quantile(0.999)/1e3, float64(whole[kInsert].max)/1e3,
		whole[kDelete].Quantile(0.99)/1e3, whole[kDelete].Quantile(0.999)/1e3, float64(whole[kDelete].max)/1e3)

	// Correctness: exactly-once audit, per-node books, order probe.
	var audit auditResult
	drained, err := e.drain()
	if err != nil {
		audit.fail(1, "drain: %v", err)
	}
	delivered.merge(drained)
	audit.exactlyOnce(acked, delivered)
	if e.settled != nil {
		if err := e.settled(); err != nil {
			audit.fail(1, "audit: %v", err)
		}
	}
	if e.strict {
		violations, err := orderProbe(e.caller(), p.seed)
		if err != nil {
			audit.fail(1, "order probe: %v", err)
		}
		for _, v := range violations {
			audit.fail(1, "order probe: %v", v)
		}
	}
	if total[kFailed] > 0 {
		audit.fail(total[kFailed], "%d ops returned an error or a corrupt item", total[kFailed])
	}
	out.attempted = total.attempted()
	out.failed = audit.failed
	out.problems = audit.problems
	out.notef("ops: %d inserts acked, %d delete-mins delivered, %d found the queue empty, %d failed; %d items drained at the end",
		total[kInsert], total[kDelete], total[kEmpty], total[kFailed], drained.n)

	out.procLayer(mem0, mem1)
	if ls.rate > 0 {
		late := &whole[kLate]
		out.layer["loadgen.late_frac"] = float64(late.n-late.countBelow(lateNs)) / float64(max(late.n, 1))
		out.layer["loadgen.late_p99_us"] = late.Quantile(0.99) / 1e3
		out.layer["loadgen.backlog_max"] = float64(backlogMax)
		out.layer["loadgen.achieved_rate_frac"] = median(series["achieved"])
		out.notef("open loop at %.0f ops/s: late_frac %.4f (late = began more than %d us after due), lateness p50 %.1f us p99 %.1f us, backlog max %d, achieved %.4f of the rate",
			ls.rate, out.layer["loadgen.late_frac"], lateNs/1000, late.Quantile(0.5)/1e3, late.Quantile(0.99)/1e3, backlogMax, median(series["achieved"]))
	}
	if e.layerStats != nil {
		for k, v := range e.layerStats() {
			out.layer[k] = v
		}
	}
	return out, nil
}

// segmentMetrics are the metrics measured once per segment (or simulated
// round), with the end each is better at.
var segmentMetrics = []struct{ name, better string }{
	{"ops_per_s", "higher"}, {"insert_p50_us", "lower"}, {"insert_p99_us", "lower"},
	{"delete_p50_us", "lower"}, {"delete_p99_us", "lower"}, {"cpu_us_per_op", "lower"},
}

// reportSeries turns each per-segment series into its reported value. The
// p99s are per-layer metrics (see spec.go); the rest are end-to-end.
func (o *runOutput) reportSeries(series map[string][]float64, of string) {
	for _, m := range segmentMetrics {
		xs := series[m.name]
		v := bestDecile(xs, m.better)
		if isEndToEnd(m.name) {
			o.e2e[m.name] = v
		} else {
			o.layer[m.name] = v
		}
		o.notef("%s: %.6g is the better decile of %s; their median is %.6g, their quartile spread %.1f%%",
			m.name, v, of, median(xs), 100*spread(xs))
	}
}

// procLayer files the failure share and the Go runtime's own counters
// over the timed part, between two memory snapshots.
func (o *runOutput) procLayer(before, after memSnapshot) {
	ops := float64(max(o.attempted, 1))
	o.layer["failed_frac"] = float64(o.failed) / ops
	o.layer["proc.allocs_per_op"] = float64(after.mallocs-before.mallocs) / ops
	o.layer["proc.gc_cycles"] = float64(after.gcs - before.gcs)
	o.layer["proc.gc_pause_ms"] = float64(after.pauseNs-before.pauseNs) / 1e6
}

// lateNs: an open-loop op is late when it began more than this long after
// it was due; beyond that the op's latency is the generator's or a
// saturated caller pool's rather than the service's.
const lateNs = 1_000_000

func loopShape(ls loadSpec) string {
	if ls.rate > 0 {
		return fmt.Sprintf("open loop at %.0f ops/s, timed from due time", ls.rate)
	}
	if ls.sampleEvery > 1 {
		return fmt.Sprintf("closed loop, 1 op in %d timed", ls.sampleEvery)
	}
	return "closed loop, every op timed"
}
