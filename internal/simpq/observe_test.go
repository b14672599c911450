package simpq

import (
	"reflect"
	"testing"

	"pq/internal/core"
	"pq/internal/sim"
	"pq/internal/trace"
)

// tracedRun drives the standard workload for alg with an optional span
// collector attached and returns the result (and collector).
func tracedRun(t *testing.T, alg Algorithm, procs int, collect bool) (Result, *trace.Collector) {
	t.Helper()
	cfg := DefaultWorkload()
	cfg.OpsPerProc = 20
	cfg.Seed = 7
	cfg.KeepLatencies = true
	simCfg := sim.DefaultConfig(procs)
	var col *trace.Collector
	if collect {
		col = trace.NewCollector(procs)
		simCfg.Spans = col
	}
	r, _, err := WorkloadOnMachine(alg, 16, cfg, simCfg, 0)
	if err != nil {
		t.Fatalf("%s: %v", alg, err)
	}
	return r, col
}

// TestTraceZeroCost asserts that attaching a collector changes nothing
// about the simulated run: same final time, same event count, same
// latency results. Tracing must be observation, not perturbation.
func TestTraceZeroCost(t *testing.T) {
	for _, alg := range []Algorithm{AlgSimpleTree, AlgFunnelTree} {
		plain, _ := tracedRun(t, alg, 16, false)
		traced, col := tracedRun(t, alg, 16, true)
		if plain.Stats.FinalTime != traced.Stats.FinalTime {
			t.Errorf("%s: FinalTime changed under tracing: %d vs %d",
				alg, plain.Stats.FinalTime, traced.Stats.FinalTime)
		}
		if plain.Stats.Events != traced.Stats.Events {
			t.Errorf("%s: Events changed under tracing: %d vs %d",
				alg, plain.Stats.Events, traced.Stats.Events)
		}
		if !reflect.DeepEqual(plain.AllSummary, traced.AllSummary) {
			t.Errorf("%s: latency summary changed under tracing", alg)
		}
		if col.SpanCount() == 0 {
			t.Errorf("%s: collector recorded no spans", alg)
		}
	}
}

// TestTraceDeterministicOnQueue asserts two same-seed runs of a real
// queue workload export byte-identical traces.
func TestTraceDeterministicOnQueue(t *testing.T) {
	_, c1 := tracedRun(t, AlgFunnelTree, 16, true)
	_, c2 := tracedRun(t, AlgFunnelTree, 16, true)
	d1, err := c1.Digest()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := c2.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("same-seed traces differ: %s vs %s", d1, d2)
	}
}

// TestTraceOpSpans asserts the workload driver emits op-level spans with
// the expected kinds and counts matching the result tallies.
func TestTraceOpSpans(t *testing.T) {
	r, col := tracedRun(t, AlgSingleLock, 8, true)
	totals := col.OpTotals()
	byKind := map[string]int{}
	for _, ot := range totals {
		byKind[ot.Kind] = ot.Count
	}
	if byKind["insert"] != r.Inserts {
		t.Errorf("insert spans = %d, want %d", byKind["insert"], r.Inserts)
	}
	if byKind["deletemin"] != r.Deletes {
		t.Errorf("deletemin spans = %d, want %d", byKind["deletemin"], r.Deletes)
	}
}

// TestMetricsAllAlgorithms asserts every implementation reports
// internals and that headline counters are sane.
func TestMetricsAllAlgorithms(t *testing.T) {
	for _, alg := range core.Algorithms {
		r, _ := tracedRun(t, alg, 16, false)
		if r.Internals == nil {
			t.Errorf("%s: no internals metrics", alg)
			continue
		}
		if len(r.Internals.Names()) == 0 {
			t.Errorf("%s: empty internals metrics", alg)
		}
		for name, v := range r.Internals {
			if v < 0 {
				t.Errorf("%s: metric %s negative: %g", alg, name, v)
			}
		}
	}
}

// TestMetricsMechanisms spot-checks that the counters measure what they
// claim: locks acquire, funnels combine under load, scans scan.
func TestMetricsMechanisms(t *testing.T) {
	single, _ := tracedRun(t, AlgSingleLock, 16, false)
	ops := float64(single.Inserts + single.Deletes)
	if got := single.Internals["lock.acquires"]; got < ops {
		t.Errorf("SingleLock lock.acquires = %g, want >= %g (one per op)", got, ops)
	}
	if single.Internals["lock.wait_cycles"] <= 0 {
		t.Errorf("SingleLock under 16 procs shows no lock waiting")
	}

	lin, _ := tracedRun(t, AlgSimpleLinear, 16, false)
	if lin.Internals["scans"] != float64(lin.Deletes) {
		t.Errorf("SimpleLinear scans = %g, want %d", lin.Internals["scans"], lin.Deletes)
	}
	if lin.Internals["scanned_bins"] < lin.Internals["scans"] {
		t.Errorf("SimpleLinear scanned fewer bins than scans")
	}

	tree, _ := tracedRun(t, AlgSimpleTree, 16, false)
	if tree.Internals["descents"] != float64(tree.Deletes) {
		t.Errorf("SimpleTree descents = %g, want %d", tree.Internals["descents"], tree.Deletes)
	}

	ft, _ := tracedRun(t, AlgFunnelTree, 64, false)
	passes := ft.Internals["counter.funnel.passes"] + ft.Internals["bin.funnel.passes"]
	if passes <= 0 {
		t.Errorf("FunnelTree recorded no funnel passes")
	}
	if f := ft.Internals["counter.funnel.adaption_factor_mean"]; f <= 0 || f > 1 {
		t.Errorf("FunnelTree counter adaption factor mean out of (0,1]: %g", f)
	}
}

// TestLatencyHistograms asserts the per-op histograms cover exactly the
// measured operations and agree with the summaries on quantile order.
func TestLatencyHistograms(t *testing.T) {
	r, _ := tracedRun(t, AlgHuntEtAl, 16, false)
	if r.InsertHist.Counts == nil || r.DeleteHist.Counts == nil {
		t.Fatal("histograms not populated despite KeepLatencies")
	}
	if r.InsertHist.Count != uint64(r.Inserts) {
		t.Errorf("insert histogram total = %d, want %d", r.InsertHist.Count, r.Inserts)
	}
	if r.DeleteHist.Count != uint64(r.Deletes) {
		t.Errorf("delete histogram total = %d, want %d", r.DeleteHist.Count, r.Deletes)
	}
	p50, p99 := r.DeleteHist.Quantile(0.50), r.DeleteHist.Quantile(0.99)
	if p50 <= 0 || p99 < p50 {
		t.Errorf("delete quantiles out of order: p50=%g p99=%g", p50, p99)
	}
}

// TestProcOpsStats asserts the simulator's per-proc op counts match the
// workload's configured operation count.
func TestProcOpsStats(t *testing.T) {
	r, _ := tracedRun(t, AlgSkipList, 8, false)
	if len(r.Stats.ProcOps) != 8 {
		t.Fatalf("ProcOps length = %d, want 8", len(r.Stats.ProcOps))
	}
	for id, n := range r.Stats.ProcOps {
		if n != 20 {
			t.Errorf("proc %d completed %d ops, want 20", id, n)
		}
	}
	if r.Stats.MemOps <= 0 || r.Stats.StallCycles <= 0 {
		t.Errorf("sim totals not populated: memops=%d stalls=%d",
			r.Stats.MemOps, r.Stats.StallCycles)
	}
}
