package harness

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"pq/internal/core"
	"pq/internal/order"
	"pq/internal/sim"
	"pq/internal/simpq"
)

// The chaos experiment family answers the robustness question the paper
// leaves open: its central mechanisms — combining funnels that wait for
// partners, and locks held across remote accesses — are exactly the
// structures that degrade or hang when processors stall or die. Each
// algorithm runs under a matrix of deterministic fault plans; recorded
// histories are fed through the order checker to prove safety for the
// surviving processors, and every run's terminal state is classified.

const (
	chaosProcs = 32
	chaosPris  = 16
	// chaosWatchdog bounds how long a non-progressing run may burn
	// simulated cycles before it is aborted with diagnostics.
	chaosWatchdog = 2_000_000
)

// ChaosPlan is one column of the fault matrix.
type ChaosPlan struct {
	Name string
	Desc string
	// Plan is nil for the fault-free baseline.
	Plan *sim.FaultPlan
}

// ChaosPlans returns the fault matrix: a fault-free baseline, uniform
// and heavy-tailed transient stalls, a degraded memory module, and a
// staggered crash-stop of several processors.
func ChaosPlans() []ChaosPlan {
	return []ChaosPlan{
		{Name: "baseline", Desc: "no faults"},
		{Name: "stall-uniform", Desc: "every proc: 400-cycle stalls, uniform 2k-8k gaps",
			Plan: &sim.FaultPlan{Stalls: []sim.StallSpec{
				{Proc: sim.AllProcs, Gap: sim.Uniform(2_000, 8_000), Duration: sim.Fixed(400)},
			}}},
		{Name: "stall-pareto", Desc: "every proc: Pareto(200, alpha=1.3) stalls - heavy tail",
			Plan: &sim.FaultPlan{Stalls: []sim.StallSpec{
				{Proc: sim.AllProcs, Gap: sim.Uniform(2_000, 8_000), Duration: sim.Pareto(200, 1.3)},
			}}},
		{Name: "degraded-module", Desc: "8x occupancy+latency on all queue memory, cycles 10k-60k",
			Plan: &sim.FaultPlan{Degrades: []sim.Degrade{
				{Base: 0, Words: 1 << 22, From: 10_000, Until: 60_000, Factor: 8},
			}}},
		{Name: "crash-stop", Desc: "procs 3, 11, 19 crash at cycles 5k, 15k, 30k",
			Plan: &sim.FaultPlan{Crashes: []sim.Crash{
				{Proc: 3, At: 5_000}, {Proc: 11, At: 15_000}, {Proc: 19, At: 30_000},
			}}},
	}
}

// ChaosCell is one (plan, algorithm) outcome.
type ChaosCell struct {
	Plan      string
	Algorithm string
	// Outcome classifies the terminal state: survivors-progress,
	// deadlock (orphaned lock), stranded (funnel partners), livelock
	// caught by the watchdog, etc.
	Outcome string
	// Ops counts completed operations; MeanAll their average latency.
	Ops     int
	MeanAll float64
	// Crashed is the number of crash-stopped processors.
	Crashed int
	// SafetyViolations counts uniqueness/precedence/well-formedness
	// violations in the surviving history — always expected to be zero.
	// Inversions counts priority/emptiness violations, the semantic the
	// quiescently consistent queues trade away under overlap (and any
	// algorithm may exhibit against possibly-linearized crashed ops).
	SafetyViolations int
	Inversions       int
}

// ChaosReport is the full matrix.
type ChaosReport struct {
	Procs, Pris int
	Cells       []ChaosCell
}

// scaleFaultTimes returns a copy of plan with its time-anchored faults
// (crash cycles, degradation windows) multiplied by scale. A scaled-down
// run finishes proportionally earlier, so without this a quick run's
// crashes would fire after fast algorithms have already drained — the
// miniature must hit the same phases of the run the full-scale plan
// does. Stall streams are recurring, not anchored, so they need no
// adjustment.
func scaleFaultTimes(plan *sim.FaultPlan, scale float64) *sim.FaultPlan {
	if plan == nil || scale == 1 {
		return plan
	}
	scaled := &sim.FaultPlan{
		Stalls:   plan.Stalls,
		Crashes:  append([]sim.Crash(nil), plan.Crashes...),
		Degrades: append([]sim.Degrade(nil), plan.Degrades...),
	}
	at := func(t int64) int64 {
		if s := int64(float64(t) * scale); s > 1 {
			return s
		}
		return 1
	}
	for i := range scaled.Crashes {
		scaled.Crashes[i].At = at(scaled.Crashes[i].At)
	}
	for i := range scaled.Degrades {
		scaled.Degrades[i].From = at(scaled.Degrades[i].From)
		scaled.Degrades[i].Until = at(scaled.Degrades[i].Until)
	}
	return scaled
}

// RunChaos executes the fault matrix over every algorithm — the paper's
// seven plus the relaxed MultiQueue, whose priority reorderings land in
// the Inversions column like the quiescently consistent queues'. scale
// shrinks the per-processor operation count exactly like experiment
// runs; crash cycles and degradation windows shrink with it.
func RunChaos(scale float64, progress func(string)) (*ChaosReport, error) {
	cfg := simpq.DefaultWorkload()
	cfg.OpsPerProc = scaleOps(40, scale)
	var s sweep[ChaosCell]
	for _, plan := range ChaosPlans() {
		for _, alg := range core.All() {
			s.label(fmt.Sprintf("%s / %s", plan.Name, alg))
			s.add(func() (ChaosCell, error) {
				simCfg := sim.DefaultConfig(chaosProcs)
				simCfg.Faults = scaleFaultTimes(plan.Plan, scale)
				simCfg.WatchdogCycles = chaosWatchdog
				r, err := simpq.ChaosWorkload(alg, chaosPris, cfg, simCfg)
				if err != nil {
					return ChaosCell{}, fmt.Errorf("chaos %s/%s: %w", plan.Name, alg, err)
				}
				cell := ChaosCell{
					Plan:      plan.Name,
					Algorithm: string(alg),
					Outcome:   ClassifyChaos(r, chaosProcs),
					Ops:       r.Latency.Inserts + r.Latency.Deletes,
					MeanAll:   r.Latency.MeanAll,
					Crashed:   len(r.Crashed),
				}
				for _, v := range order.CheckTruncated(r.History, r.Pending) {
					switch v.Rule {
					case "uniqueness", "precedence", "well-formed":
						cell.SafetyViolations++
					default:
						cell.Inversions++
					}
				}
				return cell, nil
			})
		}
	}
	cells, err := s.run(progress)
	if err != nil {
		return nil, err
	}
	return &ChaosReport{Procs: chaosProcs, Pris: chaosPris, Cells: cells}, nil
}

// labelClass buckets a blocked-address label into the structure family
// it belongs to.
func labelClass(label string) (lock, funnel bool) {
	l := strings.ToLower(label)
	lock = strings.Contains(l, "lock") || strings.Contains(l, "mcs")
	funnel = strings.Contains(l, "funnel")
	return
}

// ClassifyChaos names the failure mode of one chaos run: did survivors
// make progress, deadlock on a lock orphaned by a crash, get stranded
// waiting for funnel partners, or livelock until the watchdog fired?
func ClassifyChaos(r simpq.ChaosResult, procs int) string {
	survivors := procs - len(r.Crashed)
	if r.RunErr == nil {
		if r.Completed == survivors {
			return "survivors-progress"
		}
		return "partial-progress" // defensive; Run only returns nil when all survivors finish
	}
	var lock, funnel bool
	if errors.Is(r.RunErr, sim.ErrDeadlock) {
		for _, b := range r.Blocked {
			l, f := labelClass(b.Label)
			lock, funnel = lock || l, funnel || f
		}
		switch {
		case funnel && !lock:
			return "stranded (funnel partners)"
		case lock && !funnel:
			return "deadlock (orphaned lock)"
		case lock && funnel:
			return "deadlock (lock + funnel)"
		default:
			return "deadlock"
		}
	}
	var wd *sim.WatchdogError
	if errors.As(r.RunErr, &wd) {
		for _, ps := range wd.Procs {
			if ps.Done || ps.Crashed {
				continue
			}
			l, f := labelClass(ps.BlockedLabel)
			lock, funnel = lock || l, funnel || f
		}
		switch {
		case funnel && !lock:
			return "stranded (funnel partners, watchdog)"
		case lock:
			return "livelock (watchdog, lock)"
		default:
			return "livelock (watchdog)"
		}
	}
	if errors.Is(r.RunErr, sim.ErrEventLimit) {
		return "livelock (event limit)"
	}
	return "error: " + r.RunErr.Error()
}

// Render writes the failure-mode table, one block per fault plan.
func (rep *ChaosReport) Render(w io.Writer) {
	fmt.Fprintf(w, "chaos matrix: %d processors, %d priorities; watchdog %d cycles\n\n",
		rep.Procs, rep.Pris, int64(chaosWatchdog))
	byPlan := map[string][]ChaosCell{}
	var planOrder []string
	for _, c := range rep.Cells {
		if _, ok := byPlan[c.Plan]; !ok {
			planOrder = append(planOrder, c.Plan)
		}
		byPlan[c.Plan] = append(byPlan[c.Plan], c)
	}
	descs := map[string]string{}
	for _, p := range ChaosPlans() {
		descs[p.Name] = p.Desc
	}
	for _, plan := range planOrder {
		fmt.Fprintf(w, "-- %s (%s) --\n", plan, descs[plan])
		head := []string{"algorithm", "outcome", "ops", "mean", "crashed", "safety", "inversions"}
		var rows [][]string
		for _, c := range byPlan[plan] {
			rows = append(rows, []string{
				c.Algorithm, c.Outcome,
				fmt.Sprintf("%d", c.Ops),
				fmt.Sprintf("%.0f", c.MeanAll),
				fmt.Sprintf("%d", c.Crashed),
				fmt.Sprintf("%d", c.SafetyViolations),
				fmt.Sprintf("%d", c.Inversions),
			})
		}
		writeAligned(w, head, rows)
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "safety = uniqueness/precedence/well-formedness violations in the surviving")
	fmt.Fprintln(w, "history (must be 0); inversions = priority/emptiness reorderings, the")
	fmt.Fprintln(w, "semantic the quiescently consistent queues trade for scalability.")
}
