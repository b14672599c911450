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

func TestStallInjectionSlowsWallClock(t *testing.T) {
	base := DefaultWorkload()
	base.OpsPerProc = 20
	r1, err := RunWorkload(AlgSimpleTree, 8, 8, base)
	if err != nil {
		t.Fatal(err)
	}
	stalled := base
	stalled.StallEvery = 2
	stalled.StallCycles = 5000
	r2, err := RunWorkload(AlgSimpleTree, 8, 8, stalled)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Stats.FinalTime <= r1.Stats.FinalTime {
		t.Fatalf("stalls did not extend the run: %d vs %d", r2.Stats.FinalTime, r1.Stats.FinalTime)
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
func BenchmarkFig7Round(b *testing.B) {
	cfg := DefaultWorkload()
	cfg.KeepLatencies = true
	b.ReportAllocs()
	var events int64
	for b.Loop() {
		r, err := RunWorkload(AlgFunnelTree, 256, 16, cfg)
		if err != nil {
			b.Fatal(err)
		}
		events += r.Stats.Events
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "host-ns/event")
}
