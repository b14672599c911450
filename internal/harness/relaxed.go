package harness

import (
	"fmt"
	"io"

	"pq/internal/simpq"
)

// The relaxed-frontier experiment measures the trade the MultiQueue
// makes explicit: how much throughput does giving up exact delete-min
// order buy, and how much order is actually lost? Each point runs the
// paper's standard workload and reports throughput next to the measured
// rank-error distribution (rank = number of strictly-better items
// present when an item was popped). FunnelTree — the paper's best exact
// scalable queue — anchors the zero-rank-error end of the frontier.

// FrontierPoint is one (configuration, processor count) measurement.
type FrontierPoint struct {
	// Algorithm is "FunnelTree" for the exact baseline or "MultiQueue"
	// for relaxed points; C is the queues-per-processor multiplier (0
	// for the baseline).
	Algorithm string
	C         int
	Procs     int
	// ThroughputOpsPerKCycle is completed operations per thousand
	// simulated cycles across the whole machine.
	ThroughputOpsPerKCycle float64
	// MeanAll is the mean access latency in cycles.
	MeanAll float64
	// RankMean, RankP50, RankP99 and RankMax describe the rank-error
	// distribution over delivered items (all zero for the baseline:
	// an exact queue never pops over a better item).
	RankMean, RankP50, RankP99 float64
	RankMax                    float64
	// FailedDeletes counts delete-min calls that found the queue empty.
	FailedDeletes int
}

// FrontierReport is the full sweep.
type FrontierReport struct {
	Pris   int
	Cs     []int
	Procs  []int
	Points []FrontierPoint
}

// DefaultFrontierCs returns the queues-per-processor multipliers the
// acceptance sweep measures. Williams & Sanders study c in this range:
// c=2 is their recommended default, larger c trades rank error down for
// extra indirection.
func DefaultFrontierCs() []int { return []int{1, 2, 4} }

// DefaultFrontierProcs returns the processor counts of the sweep — the
// small/medium/large shape of the paper's figures.
func DefaultFrontierProcs() []int { return []int{8, 32, 128} }

// RunRelaxedFrontier sweeps MultiQueue configurations (one per c in cs)
// and the FunnelTree baseline over the given processor counts, at the
// standard workload scaled by scale.
func RunRelaxedFrontier(cs, procsList []int, pris int, scale float64, progress func(string)) (*FrontierReport, error) {
	if len(cs) == 0 {
		cs = DefaultFrontierCs()
	}
	if len(procsList) == 0 {
		procsList = DefaultFrontierProcs()
	}
	cfg := simpq.DefaultWorkload()
	cfg.OpsPerProc = scaleOps(cfg.OpsPerProc, scale)
	var s sweep[FrontierPoint]
	for _, procs := range procsList {
		s.label(fmt.Sprintf("frontier FunnelTree procs=%d", procs))
		s.add(func() (FrontierPoint, error) {
			r, err := simpq.RunWorkload(simpq.AlgFunnelTree, procs, pris, cfg)
			if err != nil {
				return FrontierPoint{}, fmt.Errorf("frontier FunnelTree procs=%d: %w", procs, err)
			}
			return frontierPoint(string(simpq.AlgFunnelTree), 0, procs, r), nil
		})
		for _, c := range cs {
			s.label(fmt.Sprintf("frontier MultiQueue c=%d procs=%d", c, procs))
			s.add(func() (FrontierPoint, error) {
				r, err := runFrontierMultiQueue(c, procs, pris, cfg)
				if err != nil {
					return FrontierPoint{}, fmt.Errorf("frontier MultiQueue c=%d procs=%d: %w", c, procs, err)
				}
				return frontierPoint(string(simpq.AlgMultiQueue), c, procs, r), nil
			})
		}
	}
	points, err := s.run(progress)
	if err != nil {
		return nil, err
	}
	return &FrontierReport{Pris: pris, Cs: cs, Procs: procsList, Points: points}, nil
}

// runFrontierMultiQueue drives the standard workload against a
// MultiQueue built with an explicit c — the one knob the frontier
// sweeps, which the default Build path pins to 2.
func runFrontierMultiQueue(c, procs, pris int, cfg simpq.WorkloadConfig) (simpq.Result, error) {
	m, maxItems, err := customMachine(procs, cfg)
	if err != nil {
		return simpq.Result{}, err
	}
	q := simpq.NewMultiQueue(m, pris, maxItems, c)
	return simpq.DriveWorkload(m, q, cfg)
}

func frontierPoint(alg string, c, procs int, r simpq.Result) FrontierPoint {
	p := FrontierPoint{
		Algorithm:     alg,
		C:             c,
		Procs:         procs,
		MeanAll:       r.MeanAll,
		FailedDeletes: r.FailedDeletes,
	}
	if r.Stats.FinalTime > 0 {
		p.ThroughputOpsPerKCycle =
			float64(r.Inserts+r.Deletes) / float64(r.Stats.FinalTime) * 1000
	}
	if in := r.Internals; in != nil {
		p.RankMean = in["multiqueue.rank_mean"]
		p.RankP50 = in["multiqueue.rank_p50"]
		p.RankP99 = in["multiqueue.rank_p99"]
		p.RankMax = in["multiqueue.rank_max"]
	}
	return p
}

// Render writes the frontier, one block per processor count: throughput
// and latency next to the rank-error distribution, baseline first.
func (rep *FrontierReport) Render(w io.Writer) {
	fmt.Fprintf(w, "throughput vs rank error: standard workload, %d priorities\n", rep.Pris)
	fmt.Fprintf(w, "rank = better items present at pop time; FunnelTree is the exact baseline\n\n")
	byProcs := map[int][]FrontierPoint{}
	for _, p := range rep.Points {
		byProcs[p.Procs] = append(byProcs[p.Procs], p)
	}
	for _, procs := range rep.Procs {
		fmt.Fprintf(w, "-- %d processors --\n", procs)
		head := []string{"config", "ops/kcycle", "mean latency", "rank mean", "rank p50", "rank p99", "rank max", "failed deletes"}
		var rows [][]string
		for _, p := range byProcs[procs] {
			name := p.Algorithm
			if p.C > 0 {
				name = fmt.Sprintf("%s c=%d", p.Algorithm, p.C)
			}
			rows = append(rows, []string{
				name,
				fmt.Sprintf("%.2f", p.ThroughputOpsPerKCycle),
				fmt.Sprintf("%.0f", p.MeanAll),
				fmt.Sprintf("%.2f", p.RankMean),
				fmt.Sprintf("%.0f", p.RankP50),
				fmt.Sprintf("%.0f", p.RankP99),
				fmt.Sprintf("%.0f", p.RankMax),
				fmt.Sprintf("%d", p.FailedDeletes),
			})
		}
		writeAligned(w, head, rows)
		fmt.Fprintln(w)
	}
}
