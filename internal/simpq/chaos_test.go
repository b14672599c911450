package simpq

import (
	"errors"
	"reflect"
	"testing"

	"pq/internal/core"
	"pq/internal/order"
	"pq/internal/sim"
)

func chaosSimCfg(procs int) sim.Config {
	cfg := sim.DefaultConfig(procs)
	cfg.WatchdogCycles = 500_000
	return cfg
}

// TestChaosBitDeterminism is the acceptance check that chaos runs are
// pure functions of (FaultPlan, Seed): two runs of the same plan must
// agree on the final stats and on the history digest, and a different
// seed must not.
func TestChaosBitDeterminism(t *testing.T) {
	plan := &sim.FaultPlan{
		Stalls:   []sim.StallSpec{{Proc: sim.AllProcs, Gap: sim.Uniform(1_000, 4_000), Duration: sim.Pareto(100, 1.4)}},
		Crashes:  []sim.Crash{{Proc: 3, At: 9_000}},
		Degrades: []sim.Degrade{{Base: 0, Words: 1 << 20, From: 4_000, Until: 20_000, Factor: 4}},
	}
	cfg := DefaultWorkload()
	cfg.OpsPerProc = 20
	run := func(alg Algorithm, seed int64) ChaosResult {
		simCfg := chaosSimCfg(16)
		simCfg.Seed = seed
		simCfg.Faults = plan
		r, err := ChaosWorkload(alg, 8, cfg, simCfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, alg := range []Algorithm{AlgSimpleLinear, AlgFunnelTree} {
		a := run(alg, 1)
		b := run(alg, 1)
		if a.Digest != b.Digest {
			t.Fatalf("%s: history digests diverged: %#x vs %#x", alg, a.Digest, b.Digest)
		}
		if !reflect.DeepEqual(a.Latency.Stats, b.Latency.Stats) {
			t.Fatalf("%s: final stats diverged: %+v vs %+v", alg, a.Latency.Stats, b.Latency.Stats)
		}
		if a.Completed != b.Completed || len(a.History) != len(b.History) || len(a.Pending) != len(b.Pending) {
			t.Fatalf("%s: outcome diverged", alg)
		}
		if c := run(alg, 2); c.Digest == a.Digest {
			t.Fatalf("%s: different seed reproduced the same digest %#x", alg, a.Digest)
		}
	}
}

// TestChaosCrashSafetyForSurvivors drives every algorithm under a
// crash-stop plan and requires that the surviving processors' history
// stays safe: no uniqueness, precedence or well-formedness violation
// even with crashed operations treated as possibly linearized.
// (Priority/emptiness inversions are the semantic the quiescently
// consistent queues trade away; they are not failures here.)
func TestChaosCrashSafetyForSurvivors(t *testing.T) {
	plan := &sim.FaultPlan{Crashes: []sim.Crash{
		{Proc: 1, At: 3_000}, {Proc: 5, At: 11_000},
	}}
	cfg := DefaultWorkload()
	cfg.OpsPerProc = 25
	for _, alg := range core.Algorithms {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			simCfg := chaosSimCfg(12)
			simCfg.Faults = plan
			r, err := ChaosWorkload(alg, 8, cfg, simCfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Crashed) == 0 {
				t.Fatal("no processor crashed under a crash plan")
			}
			for _, v := range order.CheckTruncated(r.History, r.Pending) {
				if v.Rule == "uniqueness" || v.Rule == "precedence" || v.Rule == "well-formed" {
					t.Errorf("safety violation: %v", v)
				}
			}
			// Whatever the outcome, it must be one of the typed terminal
			// states, never a silent burn to the event limit.
			if r.RunErr != nil {
				var wd *sim.WatchdogError
				if !errors.Is(r.RunErr, sim.ErrDeadlock) && !errors.As(r.RunErr, &wd) {
					t.Errorf("unexpected terminal state: %v", r.RunErr)
				}
			}
		})
	}
}

// TestChaosCleanRunMatchesPlainWorkload sanity-checks the plumbing: with
// no faults, every processor completes and the history checker sees the
// same kind of history the plain workload produces.
func TestChaosCleanRunCompletes(t *testing.T) {
	cfg := DefaultWorkload()
	cfg.OpsPerProc = 20
	r, err := ChaosWorkload(AlgSingleLock, 8, cfg, chaosSimCfg(8))
	if err != nil {
		t.Fatal(err)
	}
	if r.RunErr != nil {
		t.Fatalf("clean run errored: %v", r.RunErr)
	}
	if r.Completed != 8 || len(r.Pending) != 0 || len(r.Crashed) != 0 || len(r.Blocked) != 0 {
		t.Fatalf("clean run left debris: %+v", r)
	}
	if len(r.History) != 8*20 {
		t.Fatalf("history has %d ops, want %d", len(r.History), 8*20)
	}
	if vs := order.Check(r.History); len(vs) != 0 {
		t.Fatalf("clean SingleLock history flagged: %v", vs)
	}
}

// TestChaosOrphanedLockBlocksSurvivors pins down the classic failure
// mode: crash the single-lock holder and the survivors must end up
// parked on a lock word, reported as a deadlock with useful labels.
func TestChaosOrphanedLockBlocksSurvivors(t *testing.T) {
	// Crash several processors at staggered points mid-run; with a
	// single global MCS lock serializing every operation, some crash is
	// overwhelmingly likely to land inside a critical section.
	plan := &sim.FaultPlan{Crashes: []sim.Crash{
		{Proc: 0, At: 2_000}, {Proc: 1, At: 2_500}, {Proc: 2, At: 3_000}, {Proc: 3, At: 3_500},
	}}
	cfg := DefaultWorkload()
	cfg.OpsPerProc = 40
	simCfg := chaosSimCfg(8)
	simCfg.Faults = plan
	r, err := ChaosWorkload(AlgSingleLock, 8, cfg, simCfg)
	if err != nil {
		t.Fatal(err)
	}
	var wd *sim.WatchdogError
	if !errors.Is(r.RunErr, sim.ErrDeadlock) && !errors.As(r.RunErr, &wd) {
		t.Fatalf("expected deadlock or watchdog after crashing lock holders, got %v (completed %d)", r.RunErr, r.Completed)
	}
	if errors.Is(r.RunErr, sim.ErrDeadlock) && len(r.Blocked) == 0 {
		t.Fatal("deadlocked run reported no blocked processors")
	}
	for _, v := range order.CheckTruncated(r.History, r.Pending) {
		if v.Rule == "uniqueness" || v.Rule == "precedence" || v.Rule == "well-formed" {
			t.Errorf("safety violation: %v", v)
		}
	}
}

func TestWorkloadConfigValidation(t *testing.T) {
	bad := []WorkloadConfig{
		{OpsPerProc: 0, InsertFraction: 0.5},
		{OpsPerProc: 10, LocalWork: -1, InsertFraction: 0.5},
		{OpsPerProc: 10, InsertFraction: -0.1},
		{OpsPerProc: 10, InsertFraction: 1.5},
		{OpsPerProc: 10, InsertFraction: 0.5, Prefill: -1},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v: expected validation error", cfg)
		}
		if _, err := RunWorkload(AlgSimpleLinear, 4, 8, cfg); err == nil {
			t.Errorf("RunWorkload accepted %+v", cfg)
		}
	}
	if err := DefaultWorkload().Validate(); err != nil {
		t.Fatalf("default workload invalid: %v", err)
	}
	// Zero priorities must error up front, not panic mid-run.
	if _, err := RunWorkload(AlgSimpleLinear, 4, 0, DefaultWorkload()); err == nil {
		t.Error("zero priorities accepted")
	}
	if _, err := ChaosWorkload(AlgSimpleLinear, 0, DefaultWorkload(), sim.DefaultConfig(4)); err == nil {
		t.Error("ChaosWorkload accepted zero priorities")
	}
	if _, err := ChaosWorkload("NoSuchQueue", 8, DefaultWorkload(), sim.DefaultConfig(4)); err == nil {
		t.Error("ChaosWorkload accepted unknown algorithm")
	}
}
