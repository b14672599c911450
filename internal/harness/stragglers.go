package harness

import (
	"fmt"
	"io"

	"pq/internal/sim"
	"pq/internal/simpq"
)

// stragglerModes are the stall regimes the experiment compares, built on
// the simulator's fault-injection layer (sim.FaultPlan): stalls land at
// engine level, freezing a processor wherever it happens to be — in the
// middle of a combining handshake or while holding a lock — rather than
// only at the polite operation boundaries the old in-workload knob hit.
func stragglerModes() []struct {
	name string
	plan *sim.FaultPlan
} {
	return []struct {
		name string
		plan *sim.FaultPlan
	}{
		{"none", nil},
		{"mild", &sim.FaultPlan{Stalls: []sim.StallSpec{
			// ~400-cycle stalls (10 remote accesses) every 4k-12k cycles.
			{Proc: sim.AllProcs, Gap: sim.Uniform(4_000, 12_000), Duration: sim.Fixed(400)},
		}}},
		{"heavy-tail", &sim.FaultPlan{Stalls: []sim.StallSpec{
			// Pareto stalls: mostly short, occasionally enormous — the
			// realistic straggler profile of preemption and page faults.
			{Proc: sim.AllProcs, Gap: sim.Uniform(2_000, 6_000), Duration: sim.Pareto(200, 1.3)},
		}}},
	}
}

// Stragglers probes a robustness question the paper leaves open: funnel
// operations wait for combining partners, so how do the queues fare when
// processors stall unpredictably (preemption, page faults)? Each mode
// injects engine-level stalls from a seeded distribution; the experiment
// compares access latency across regimes. Stall time itself is part of
// the measured latency — a stalled processor's in-flight operation
// really does take that long.
func Stragglers() *Experiment {
	return &Experiment{
		ID:       "stragglers",
		Title:    "Latency under random engine-level stalls (16 priorities, 64 processors)",
		PaperRef: "robustness probe (beyond the paper)",
		Run: func(scale float64, progress func(string)) ([]Point, error) {
			base := simpq.DefaultWorkload()
			base.OpsPerProc = scaleOps(base.OpsPerProc, scale)
			modes := stragglerModes()
			var s sweep[Point]
			for _, alg := range fastAlgorithms {
				s.label(string(alg))
				for mi, mode := range modes {
					s.add(func() (Point, error) {
						simCfg := sim.DefaultConfig(64)
						simCfg.Faults = mode.plan
						r, _, err := simpq.WorkloadOnMachine(alg, 16, base, simCfg, 0)
						return Point{Algorithm: string(alg), Procs: 64, Pris: 16, X: float64(mi), Result: r}, err
					})
				}
			}
			return s.run(progress)
		},
		Render: func(w io.Writer, pts []Point) {
			modes := stragglerModes()
			head := []string{"algorithm"}
			for _, m := range modes {
				head = append(head, m.name)
			}
			var rows [][]string
			byAlg := map[string]map[float64]float64{}
			var algOrder []string
			for _, p := range pts {
				if byAlg[p.Algorithm] == nil {
					byAlg[p.Algorithm] = map[float64]float64{}
					algOrder = append(algOrder, p.Algorithm)
				}
				byAlg[p.Algorithm][p.X] = p.Result.MeanAll
			}
			for _, alg := range algOrder {
				m := byAlg[alg]
				row := []string{alg}
				for mi := range modes {
					row = append(row, fmt.Sprintf("%.0f", m[float64(mi)]))
				}
				rows = append(rows, row)
			}
			writeAligned(w, head, rows)
			fmt.Fprintln(w, "\nfunnel methods wait for combining partners, so stalled peers")
			fmt.Fprintln(w, "could hurt them disproportionately; adaption is the countermeasure.")
		},
	}
}
