package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"time"

	"pq/internal/simpq"
	"pq/simulator"
)

// goldenFile holds the exact simulated statistics of the golden round,
// one entry per round size (ops per simulated processor).
type goldenFile struct {
	Procs      int                           `json:"procs"`
	Priorities int                           `json:"priorities"`
	Seed       int64                         `json:"seed"`
	Rounds     map[string]map[string]float64 `json:"rounds"`
}

//go:embed golden.json
var goldenJSON []byte

var simAlgs = []simpq.Algorithm{simpq.AlgFunnelTree, simpq.AlgSimpleLinear, simpq.AlgMultiQueue}

// simOps is the round size at this run length: the paper's 60 ops per
// processor at the commissioned run_seconds, scaled for shorter runs.
func simOps(seconds float64) int {
	return max(1, int(math.Round(simOpsPerProc*seconds/defaultSeconds)))
}

func simRun(alg simpq.Algorithm, seed int64, opsPerProc int) (simpq.Result, time.Duration, error) {
	cfg := simpq.DefaultWorkload()
	cfg.OpsPerProc = opsPerProc
	cfg.Seed = seed
	cfg.KeepLatencies = true
	t0 := time.Now()
	r, err := simpq.RunWorkload(alg, simProcs, simPriorities, cfg)
	return r, time.Since(t0), err
}

func simDone(r simpq.Result) int64 { return int64(r.Inserts + r.Deletes - r.FailedDeletes) }

// goldenRound runs the three algorithms at the fixed golden seed. Every
// value in exact is simulated and repeats exactly; layer adds the per-layer
// metrics, of which only sim.host_ns_per_event depends on the host.
func goldenRound(opsPerProc int) (exact, layer map[string]float64, ops int64, err error) {
	exact = map[string]float64{}
	layer = map[string]float64{}
	for _, alg := range simAlgs {
		r, host, err := simRun(alg, simGoldenSeed, opsPerProc)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("golden round %s: %w", alg, err)
		}
		ops += int64(r.Inserts + r.Deletes)
		a := string(alg)
		exact[a+".events"] = float64(r.Stats.Events)
		exact[a+".simulated_cycles"] = float64(r.Stats.FinalTime)
		exact[a+".inserts"] = float64(r.Inserts)
		exact[a+".deletes"] = float64(r.Deletes)
		exact[a+".failed_deletes"] = float64(r.FailedDeletes)
		exact[a+".mean_insert_cycles"] = r.MeanInsert
		exact[a+".mean_delete_cycles"] = r.MeanDelete
		exact[a+".mean_cycles"] = r.MeanAll
		exact[a+".p99_cycles"] = r.AllSummary.P99
		layer["simpq."+a+".mean_cycles"] = r.MeanAll
		if alg == simpq.AlgFunnelTree {
			passes := r.Internals["counter.funnel.passes"]
			exact[a+".combines"] = r.Internals["counter.funnel.combines"]
			exact[a+".eliminations"] = r.Internals["counter.funnel.eliminations"]
			exact[a+".passes"] = passes
			layer["sim.events"] = float64(r.Stats.Events)
			layer["sim.simulated_cycles"] = float64(r.Stats.FinalTime)
			layer["sim.host_ns_per_event"] = float64(host.Nanoseconds()) / float64(max(r.Stats.Events, 1))
			layer["simpq.FunnelTree.p99_cycles"] = r.AllSummary.P99
			layer["simpq.FunnelTree.combine_frac"] = r.Internals["counter.funnel.combines"] / math.Max(passes, 1)
			layer["simpq.FunnelTree.elim_frac"] = r.Internals["counter.funnel.eliminations"] / math.Max(passes, 1)
			layer["sim_insert_cycles"] = r.MeanInsert
			layer["sim_delete_cycles"] = r.MeanDelete
		}
	}
	delete(layer, "simpq.FunnelTree.mean_cycles") // FunnelTree reports its p99 instead
	return exact, layer, ops, nil
}

// checkGolden compares a golden round with the stored values for its size.
func checkGolden(exact map[string]float64, opsPerProc int, audit *auditResult) (checked bool, err error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return false, fmt.Errorf("golden.json: %w", err)
	}
	if g.Procs != simProcs || g.Priorities != simPriorities || g.Seed != simGoldenSeed {
		return false, fmt.Errorf("golden.json was written for %d procs, %d priorities, seed %d", g.Procs, g.Priorities, g.Seed)
	}
	want, ok := g.Rounds[strconv.Itoa(opsPerProc)]
	if !ok {
		return false, nil
	}
	for name, w := range want {
		if got, ok := exact[name]; !ok || got != w {
			audit.fail(1, "golden: %s = %v, stored %v", name, got, w)
		}
	}
	for name := range exact {
		if _, ok := want[name]; !ok {
			audit.fail(1, "golden: %s has no stored value", name)
		}
	}
	return true, nil
}

// writeGolden merges the golden round for this run length into path.
func writeGolden(path string, seconds float64) error {
	g := goldenFile{Procs: simProcs, Priorities: simPriorities, Seed: simGoldenSeed, Rounds: map[string]map[string]float64{}}
	if old, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(old, &g); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	n := simOps(seconds)
	exact, _, _, err := goldenRound(n)
	if err != nil {
		return err
	}
	g.Rounds[strconv.Itoa(n)] = exact
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// simRounds is how many seeded FunnelTree rounds sim_fig7 measures.
const simRounds = 5

// runSim is the sim_fig7 workload: a golden round at a fixed seed checked
// exactly against golden.json (it doubles as the warm-up), then simRounds
// FunnelTree rounds at seeds derived from --seed.
func runSim(p runParams) (*runOutput, error) {
	out := newRunOutput()
	n := simOps(p.seconds)

	// Set-up is building the simulated machine and the queue on it.
	setupS, err := medianSetup(p, func() error {
		mc, err := simulator.NewMachine(simProcs)
		if err != nil {
			return err
		}
		_, err = mc.NewQueue(simulator.FunnelTree, simPriorities, simProcs*n+1)
		return err
	})
	if err != nil {
		return nil, err
	}
	out.e2e["setup_s"] = setupS

	mem0 := readMem()
	var audit auditResult
	exact, layer, ops, err := goldenRound(n)
	if err != nil {
		return nil, err
	}
	out.layer = layer
	checked, err := checkGolden(exact, n, &audit)
	if err != nil {
		return nil, err
	}
	if checked {
		out.notef("golden round (%d ops/proc, seed %d): %d simulated statistics compared exactly with golden.json", n, simGoldenSeed, len(exact))
	} else {
		out.notef("golden round: golden.json has no entry for %d ops/proc, nothing compared", n)
	}

	series := map[string][]float64{}
	add := func(name string, v float64) { series[name] = append(series[name], v) }
	for round := 0; round < simRounds; round++ {
		cpu0 := cpuMicros()
		seed := int64(mix64(p.seed^uint64(round+1))>>1) | 1
		r, host, err := simRun(simpq.AlgFunnelTree, seed, n)
		if err != nil {
			return nil, err
		}
		done := simDone(r)
		ops += int64(r.Inserts + r.Deletes)
		add("ops_per_s", float64(done)/host.Seconds())
		add("cpu_us_per_op", (cpuMicros()-cpu0)/float64(max(done, 1)))
		add("insert_p50_us", r.InsertSummary.P50/simClockGHz/1e3)
		add("insert_p99_us", r.InsertSummary.P99/simClockGHz/1e3)
		add("delete_p50_us", r.DeleteSummary.P50/simClockGHz/1e3)
		add("delete_p99_us", r.DeleteSummary.P99/simClockGHz/1e3)
	}
	mem1 := readMem()
	out.reportSeries(series, fmt.Sprintf("%d seeded FunnelTree rounds", simRounds))
	out.e2e["mem_mb"] = float64(mem1.sys) / (1 << 20)
	out.notef("load: %d simulated processors, %d priorities, %d ops/proc; latencies are simulated time at a nominal %g GHz; host GOMAXPROCS %d",
		simProcs, simPriorities, n, simClockGHz, runtime.GOMAXPROCS(0))

	out.attempted = ops
	out.failed = audit.failed
	out.problems = audit.problems
	out.procLayer(mem0, mem1)
	return out, nil
}
