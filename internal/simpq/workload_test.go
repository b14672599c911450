package simpq

import (
	"testing"

	"pq/internal/sim"
)

func TestPrefillSpreadsAcrossProcessors(t *testing.T) {
	cfg := DefaultWorkload()
	cfg.OpsPerProc = 10
	cfg.Prefill = 37       // deliberately not divisible by procs
	cfg.InsertFraction = 0 // all measured ops are deletes
	r, err := RunWorkload(AlgSimpleLinear, 8, 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 80 deletes against 37 prefilled items: exactly 37 must succeed.
	if got := r.Deletes - r.FailedDeletes; got != 37 {
		t.Fatalf("successful deletes = %d, want 37", got)
	}
}

func TestSojournWorkload(t *testing.T) {
	m, err := sim.New(sim.DefaultConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultWorkload()
	cfg.OpsPerProc = 30
	q := NewFunnelTreeDiscipline(m, 8, 8*30+1, DefaultFunnelParams(8), DefaultFunnelCutoff, false)
	r, err := SojournWorkload(m, q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	succ := r.Latency.Deletes - r.Latency.FailedDeletes
	if r.Sojourn.Count != succ {
		t.Fatalf("sojourn samples = %d, want %d successful deletes", r.Sojourn.Count, succ)
	}
	if succ > 0 && (r.Sojourn.Min < 0 || r.Sojourn.Mean <= 0) {
		t.Fatalf("implausible sojourns: %+v", r.Sojourn)
	}
	if r.Latency.MeanAll <= 0 {
		t.Fatalf("no latency measured")
	}
}

// sojournRun runs SojournWorkload on a FunnelTree sized for cfg.
func sojournRun(t *testing.T, procs int, cfg WorkloadConfig) SojournResult {
	t.Helper()
	m, err := sim.New(sim.DefaultConfig(procs))
	if err != nil {
		t.Fatal(err)
	}
	r, err := SojournWorkload(m, Build(AlgFunnelTree, m, 8, capacity(procs, cfg)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// The drivers share one loop, so every WorkloadConfig input reaches each
// of them; what a driver cannot honour it refuses.

func TestSojournWorkloadHonoursPrefill(t *testing.T) {
	cfg := DefaultWorkload()
	cfg.OpsPerProc = 10
	cfg.InsertFraction = 0
	cfg.Prefill = 8 * 10
	r := sojournRun(t, 8, cfg)
	if r.Latency.FailedDeletes != 0 || r.Sojourn.Count != r.Latency.Deletes {
		t.Fatalf("deletes on a prefilled queue failed: %d of %d, %d sojourns",
			r.Latency.FailedDeletes, r.Latency.Deletes, r.Sojourn.Count)
	}
}

func TestSojournWorkloadHonoursBatch(t *testing.T) {
	cfg := DefaultWorkload()
	cfg.OpsPerProc = 10
	cfg.Batch = 4
	r := sojournRun(t, 8, cfg)
	if n := r.Latency.Inserts + r.Latency.Deletes; n != 8*10*4 {
		t.Fatalf("%d elements accessed, want %d", n, 8*10*4)
	}
	if succ := r.Latency.Deletes - r.Latency.FailedDeletes; r.Sojourn.Count != succ {
		t.Fatalf("sojourn samples = %d, want %d delivered items", r.Sojourn.Count, succ)
	}
}

func TestSojournWorkloadHonoursKeepLatencies(t *testing.T) {
	cfg := DefaultWorkload()
	cfg.OpsPerProc = 10
	cfg.KeepLatencies = true
	r := sojournRun(t, 8, cfg)
	if got := r.Latency.AllSummary.Count; got != 8*10 {
		t.Fatalf("kept %d latencies, want %d", got, 8*10)
	}
	for id, ops := range r.Latency.Stats.ProcOps {
		if ops != 10 {
			t.Fatalf("proc %d reported %d completed ops to the watchdog, want 10", id, ops)
		}
	}
}

func TestChaosWorkloadHonoursKeepLatencies(t *testing.T) {
	cfg := DefaultWorkload()
	cfg.OpsPerProc = 10
	cfg.KeepLatencies = true
	r, err := ChaosWorkload(AlgSimpleLinear, 8, cfg, chaosSimCfg(8))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Latency.AllSummary.Count; got != len(r.History) || got != 8*10 {
		t.Fatalf("kept %d latencies for %d recorded ops, want %d", got, len(r.History), 8*10)
	}
}

func TestChaosWorkloadRefusesBatch(t *testing.T) {
	cfg := DefaultWorkload()
	cfg.OpsPerProc = 10
	cfg.Batch = 4
	if _, err := ChaosWorkload(AlgSimpleLinear, 8, cfg, chaosSimCfg(8)); err == nil {
		t.Fatal("ChaosWorkload accepted Batch > 1, which its single-op history cannot record")
	}
}

func TestBarrierPhases(t *testing.T) {
	var (
		bar     *barrier
		entered []int64
	)
	const procs = 6
	entered = make([]int64, procs)
	runOn(t, procs,
		func(m *sim.Machine) { bar = newBarrier(m) },
		func(p *sim.Proc) {
			p.LocalWork(int64(p.ID()) * 100) // staggered arrivals
			bar.wait(p, 1)
			entered[p.ID()] = p.Now()
		})
	// Nobody may pass the barrier before the last arrival (t=500).
	for i, ts := range entered {
		if ts < 500 {
			t.Fatalf("proc %d passed the barrier at %d, before the last arrival", i, ts)
		}
	}
}

// BenchmarkFig7Round is one round of bench/'s sim_fig7 workload — FunnelTree
// at 256 processors, 16 priorities, the paper's 60 operations per
// processor — for iterating on the engine's host speed in seconds.
func BenchmarkFig7Round(b *testing.B) { benchmarkRound(b, 256) }

// BenchmarkSparseRound is the same round on 2 processors: so few pending
// events that the engine's event calendar is mostly empty buckets.
func BenchmarkSparseRound(b *testing.B) { benchmarkRound(b, 2) }

// benchmarkRound runs the FunnelTree round on procs processors and reports
// the engine's host time per simulated event.
func benchmarkRound(b *testing.B, procs int) {
	cfg := DefaultWorkload()
	cfg.KeepLatencies = true
	b.ReportAllocs()
	var events int64
	for b.Loop() {
		r, err := RunWorkload(AlgFunnelTree, procs, 16, cfg)
		if err != nil {
			b.Fatal(err)
		}
		events += r.Stats.Events
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "host-ns/event")
}
