// Command pqbench regenerates the paper's tables and figures on the
// simulated multiprocessor.
//
// Usage:
//
//	pqbench -experiment fig7              # one experiment, full scale
//	pqbench -experiment all -scale 0.25   # everything, quick
//	pqbench -list                         # show available experiments
//	pqbench -experiment fig8 -csv out.csv # also dump raw points as CSV
//	pqbench -metrics                      # internals counters for all queues
//	pqbench -metrics -alg multiqueue      # restrict the suite to named queues
//	pqbench -frontier                     # MultiQueue throughput-vs-rank-error sweep
//	pqbench -trace t.json -alg FunnelTree # Chrome/Perfetto trace of one run
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"pq/internal/core"
	"pq/internal/harness"
	"pq/internal/plot"
	"pq/internal/sim"
	"pq/internal/simpq"
	"pq/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pqbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("pqbench", flag.ContinueOnError)
	var (
		expID      = fs.String("experiment", "", "experiment id (see -list), or 'all'")
		scale      = fs.Float64("scale", 1.0, "workload scale in (0,1]: fraction of the full per-processor operation count")
		csvPath    = fs.String("csv", "", "write raw points as CSV to this file (single experiment only)")
		list       = fs.Bool("list", false, "list available experiments")
		quiet      = fs.Bool("q", false, "suppress progress output")
		contention = fs.String("contention", "", "profile contention for this algorithm instead of running an experiment")
		chaos      = fs.Bool("chaos", false, "run the chaos/fault-injection matrix over all algorithms instead of an experiment")
		doPlot     = fs.Bool("plot", false, "also draw an ASCII chart of each experiment's series")
		metrics    = fs.Bool("metrics", false, "run the standard workload for every algorithm and print internals metrics")
		tracePath  = fs.String("trace", "", "write a Chrome/Perfetto trace of one workload run to this file")
		alg        = fs.String("alg", "", "comma-separated algorithms for -metrics (default: the paper's seven exact queues), or the single algorithm for -trace (default FunnelTree)")
		frontier   = fs.Bool("frontier", false, "measure the relaxed frontier: MultiQueue throughput vs rank error over c and processor count, with FunnelTree as the exact baseline")
		procs      = fs.Int("procs", 256, "processors for -contention, -metrics and -trace")
		pris       = fs.Int("pris", 16, "priorities for -contention, -metrics and -trace")
		batch      = fs.Int("batch", 0, "also measure -metrics runs with this many operations per batched queue access (0 disables)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, e := range harness.All() {
			fmt.Printf("%-15s %-20s %s\n", e.ID, e.PaperRef, e.Title)
		}
		return nil
	}
	if *scale <= 0 || *scale > 1 {
		return fmt.Errorf("-scale must be in (0,1], got %g", *scale)
	}
	if *contention != "" {
		alg, err := core.ParseAlgorithm(*contention)
		if err != nil {
			return fmt.Errorf("-contention: %w", err)
		}
		rep, err := harness.ProfileContention(alg, *procs, *pris, *scale)
		if err != nil {
			return err
		}
		rep.Render(os.Stdout)
		return nil
	}
	if *tracePath != "" {
		name := *alg
		if name == "" {
			name = string(core.FunnelTree)
		}
		traceAlg, err := core.ParseAlgorithm(name)
		if err != nil {
			return fmt.Errorf("-trace: %w", err)
		}
		return runTrace(*tracePath, traceAlg, *procs, *pris, *scale)
	}
	progress := func(msg string) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "  ... %s\n", msg)
		}
	}
	if *frontier {
		rep, err := harness.RunRelaxedFrontier(nil, nil, *pris, *scale, progress)
		if err != nil {
			return err
		}
		rep.Render(os.Stdout)
		return nil
	}
	if *metrics {
		algs, err := parseAlgs(*alg)
		if err != nil {
			return err
		}
		return runMetrics(algs, *procs, *pris, *scale, *batch, *doPlot, progress)
	}
	if *chaos {
		start := time.Now()
		rep, err := harness.RunChaos(*scale, progress)
		if err != nil {
			return err
		}
		rep.Render(os.Stdout)
		fmt.Printf("(%d cells in %.1fs)\n", len(rep.Cells), time.Since(start).Seconds())
		return nil
	}
	if *expID == "" {
		fs.Usage()
		return fmt.Errorf("missing -experiment (or use -list)")
	}

	var exps []*harness.Experiment
	if *expID == "all" {
		exps = harness.All()
	} else {
		e, err := harness.ByID(*expID)
		if err != nil {
			return err
		}
		exps = []*harness.Experiment{e}
	}

	for _, e := range exps {
		start := time.Now()
		fmt.Printf("== %s (%s): %s ==\n", e.ID, e.PaperRef, e.Title)
		pts, err := e.Run(*scale, progress)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", e.ID, err)
		}
		e.Render(os.Stdout, pts)
		if *doPlot {
			renderPlot(os.Stdout, pts)
		}
		fmt.Printf("(%d points in %.1fs)\n\n", len(pts), time.Since(start).Seconds())
		if *csvPath != "" && len(exps) == 1 {
			f, err := os.Create(*csvPath)
			if err != nil {
				return err
			}
			harness.WriteCSV(f, pts)
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}

// parseAlgs resolves a comma-separated -alg list (case-insensitive).
// An empty string means the default strict suite (nil).
func parseAlgs(s string) ([]core.Algorithm, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var algs []core.Algorithm
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		alg, err := core.ParseAlgorithm(name)
		if err != nil {
			return nil, fmt.Errorf("-alg: %w", err)
		}
		algs = append(algs, alg)
	}
	if len(algs) == 0 {
		return nil, fmt.Errorf("-alg: no algorithms named in %q", s)
	}
	return algs, nil
}

// renderPlot draws the points as an ASCII line chart, one series per
// algorithm, log-x when the sweep doubles (processor counts, priorities).
func renderPlot(w io.Writer, pts []harness.Point) {
	bySeries := map[string][]plot.Point{}
	var order []string
	logX := true
	for _, p := range pts {
		if _, seen := bySeries[p.Algorithm]; !seen {
			order = append(order, p.Algorithm)
		}
		bySeries[p.Algorithm] = append(bySeries[p.Algorithm], plot.Point{X: p.X, Y: p.Result.MeanAll})
		if p.X <= 0 {
			logX = false
		}
	}
	series := make([]plot.Series, 0, len(order))
	for _, name := range order {
		series = append(series, plot.Series{Name: name, Points: bySeries[name]})
	}
	plot.Render(w, plot.Config{Width: 72, Height: 18, LogX: logX, YLabel: "mean cycles/op"}, series)
}

// runMetrics runs the standard workload for every algorithm (or the
// -alg subset) and prints the internals metrics report.
func runMetrics(algs []core.Algorithm, procs, pris int, scale float64, batch int, doPlot bool, progress func(string)) error {
	runs, err := harness.RunBenchSuite(algs, procs, pris, scale, batch, progress)
	if err != nil {
		return err
	}

	fmt.Printf("== internals metrics: standard workload, %d procs, %d priorities, scale %g ==\n\n", procs, pris, scale)
	fmt.Printf("%-14s %12s %10s %10s %10s %10s %10s %12s %12s\n",
		"algorithm", "ops/kcycle", "ins p50", "ins p99", "del p50", "del p99", "failed", "mem ops", "stall cyc")
	names := make([]string, len(runs))
	internals := make([]map[string]float64, len(runs))
	for i, r := range runs {
		names[i] = string(r.Algorithm)
		if r.Batch > 1 {
			names[i] = fmt.Sprintf("%s(b%d)", r.Algorithm, r.Batch)
		}
		internals[i] = r.Internals
		var opsPerKCycle float64
		if r.Stats.FinalTime > 0 {
			opsPerKCycle = float64(r.Inserts+r.Deletes) / float64(r.Stats.FinalTime) * 1000
		}
		fmt.Printf("%-14s %12.3f %10.0f %10.0f %10.0f %10.0f %10d %12d %12d\n",
			names[i], opsPerKCycle,
			r.InsertSummary.P50, r.InsertSummary.P99, r.DeleteSummary.P50, r.DeleteSummary.P99,
			r.FailedDeletes, r.Stats.MemOps, r.Stats.StallCycles)
	}
	fmt.Println()
	plot.MetricsTable(os.Stdout, names, internals)

	if doPlot {
		fmt.Println()
		for i, r := range runs {
			plot.LatencyHistogram(os.Stdout, fmt.Sprintf("%s insert latency", names[i]), r.InsertHist, r.InsertSummary)
			plot.LatencyHistogram(os.Stdout, fmt.Sprintf("%s delete-min latency", names[i]), r.DeleteHist, r.DeleteSummary)
			fmt.Println()
		}
	}
	return nil
}

// runTrace records one standard-workload run for alg with span tracing
// enabled and writes a Chrome trace-event file loadable in Perfetto.
func runTrace(path string, alg core.Algorithm, procs, pris int, scale float64) error {
	cfg := simpq.DefaultWorkload()
	cfg.OpsPerProc = int(float64(cfg.OpsPerProc) * scale)
	if cfg.OpsPerProc < 5 {
		cfg.OpsPerProc = 5
	}
	simCfg := sim.DefaultConfig(procs)
	col := trace.NewCollector(procs)
	simCfg.Spans = col
	r, _, err := simpq.WorkloadOnMachine(alg, pris, cfg, simCfg, 0)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := col.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	digest, err := col.Digest()
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s: %s, %d procs, %d spans (%d dropped), final time %d cycles\n",
		path, alg, procs, col.SpanCount(), col.Dropped(), r.Stats.FinalTime)
	fmt.Printf("trace digest: %s\n", digest)
	fmt.Println("phase totals (cycles):")
	totals := col.PhaseTotals()
	for _, ph := range sim.Phases {
		if totals[ph] > 0 {
			fmt.Printf("  %-12s %12d\n", ph, totals[ph])
		}
	}
	fmt.Println("load in Perfetto: https://ui.perfetto.dev > Open trace file")
	return nil
}
