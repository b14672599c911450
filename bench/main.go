// Command bench is this repository's one benchmark: six named workloads,
// six end-to-end metrics each, and a per-layer ladder from the core
// queues to the cluster client. See README.md in this directory.
//
//	bash bench/run.sh --workload serve_pipelined --seed 1 --seconds 12 --trace 0
//	bash bench/run.sh -runs 10 -out bench/results/baseline-a.json
//	bash bench/run.sh -compare bench/results/baseline-a.json bench/results/baseline-b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

type options struct {
	workload    string
	seed        uint64
	seconds     float64
	trace       int
	tmp         string
	runs        int
	out         string
	compare     bool
	spec        bool
	writeGolden string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run one workload and print the result line; empty runs every workload")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "seed the op streams are generated from")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "length of the timed part: a warm-up of a sixth of it, then 50 equal segments")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced pass and reports the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&o.tmp, "tmp", filepath.Join(".bench_build", "tmp"), "scratch directory (WAL files, the Chrome trace), inside the checkout")
	fs.IntVar(&o.runs, "runs", 1, "with no -workload: untraced runs per workload, at seeds seed, seed+1, ...")
	fs.StringVar(&o.out, "out", "", "with no -workload: write the result set to this JSON file; a comma-separated list makes that many sets of -runs runs each, their runs interleaved so that all sets see the same phases of a drifting host")
	fs.BoolVar(&o.compare, "compare", false, "compare two result sets: -compare a.json b.json")
	fs.BoolVar(&o.spec, "spec", false, "print BENCHMARK.json as generated from the metric tables")
	fs.StringVar(&o.writeGolden, "write-golden", "", "run the golden round for -seconds and merge it into this golden.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	// verdict is the exit code of a mode that either errs or says whether
	// everything it checked held.
	verdict := func(ok bool, err error) int {
		if err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
		return 0
	}
	switch {
	case o.spec:
		stdout.Write(benchmarkJSON())
		return 0
	case o.compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two result files"))
		}
		return verdict(compareFiles(stdout, fs.Arg(0), fs.Arg(1)))
	case o.writeGolden != "":
		if err := writeGolden(o.writeGolden, o.seconds); err != nil {
			return fail(err)
		}
		return 0
	}
	if o.seconds <= 0 || o.trace < 0 || o.trace > 1 || o.runs < 1 {
		return fail(fmt.Errorf("need -seconds > 0, -trace 0 or 1, -runs >= 1"))
	}
	if o.workload == "" {
		return verdict(runAll(o, stdout))
	}
	res, err := runOne(o, stdout)
	if err != nil {
		return fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return verdict(res.Correct, nil)
}

// metricValue and result are the shape of the last line of a run's output.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// environment records what a run's numbers depend on besides the code.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	OpenRate   int    `json:"serve_open_rate_ops_per_s"`
	Network    string `json:"network"`
}

func currentEnvironment() environment {
	env := environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		OpenRate:   serveOpenRate,
		Network:    "loopback, not a real link",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// runOne runs one workload once: untraced for the end-to-end metrics, or
// (trace 1) the workload plus the layer suite for the per-layer metrics.
// Everything but the result line is printed here, for people.
func runOne(o options, w io.Writer) (*result, error) {
	p := runParams{seed: o.seed, seconds: o.seconds, tmp: o.tmp}
	env := currentEnvironment()
	fmt.Fprintf(w, "# bench %s: seed %d, %g s, trace %d; nproc %d, GOMAXPROCS %d, %s, commit %s; %s\n",
		o.workload, o.seed, o.seconds, o.trace, env.NumCPU, env.GOMAXPROCS, env.GoVersion, env.Commit, env.Network)

	var out *runOutput
	var err error
	if ls, ok := loadSpecFor(o.workload); ok {
		out, err = runLoad(p, ls)
	} else if o.workload == "sim_fig7" {
		out, err = runSim(p)
	} else {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if err != nil {
		return nil, err
	}
	specs, values := endToEndSpecs, out.e2e
	if o.trace == 1 {
		if err := runLayerSuite(p, out); err != nil {
			return nil, err
		}
		specs, values = perLayerSpecs, out.layer
	}

	res := &result{Correct: out.failed == 0, Attempted: max(out.attempted, 1), Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, m := range specs {
		v, ok := values[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("workload %s measured no usable value for %s", o.workload, m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Fprintf(w, "%-42s %16.6g %s\n", m.Name, v, m.Unit)
	}
	if o.trace == 0 {
		// The run's own per-layer values come free with an untraced run.
		names := make([]string, 0, len(out.layer))
		for name := range out.layer {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "  (%s %.6g %s)\n", name, out.layer[name], unitOf(name))
		}
	}
	for _, n := range out.notes {
		fmt.Fprintln(w, "# "+n)
	}
	for _, pr := range out.problems {
		fmt.Fprintln(w, "FAILED: "+pr)
	}
	return res, nil
}

// runLayerSuite runs every per-layer probe, the short runs that harvest
// layer counters, and the ladder, filling out.layer. Values the workload
// measured itself (proc.*, and its own layer's counters) are kept.
func runLayerSuite(p runParams, out *runOutput) error {
	layer := map[string]float64{}
	absorb := func(o *runOutput, err error) error {
		if err != nil {
			return err
		}
		for k, v := range o.layer {
			if k != "failed_frac" && !strings.HasPrefix(k, "proc.") {
				layer[k] = v
			}
		}
		out.attempted += o.attempted
		out.failed += o.failed
		out.problems = append(out.problems, o.problems...)
		return nil
	}
	short := p
	short.seconds = p.seconds / 6

	if err := probeCore(p, layer); err != nil {
		return fmt.Errorf("core probe: %w", err)
	}
	probeFunnel(p, layer)
	if err := probeWire(p, layer); err != nil {
		return fmt.Errorf("wire probe: %w", err)
	}
	if err := probeServer(p, layer); err != nil {
		return fmt.Errorf("server probe: %w", err)
	}
	if err := probeWAL(p, layer); err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	if err := probeClient(p, layer); err != nil {
		return fmt.Errorf("pqclient probe: %w", err)
	}
	if err := probeCluster(p, layer); err != nil {
		return fmt.Errorf("cluster probe: %w", err)
	}
	probeObs(p, layer)

	// Counters that only a running service keeps: a short durable run for
	// the WAL's, a short open-loop run for the load generator's.
	for _, name := range []string{"serve_durable", "serve_open"} {
		ls, _ := loadSpecFor(name)
		if err := absorb(runLoad(short, ls)); err != nil {
			return fmt.Errorf("short %s run: %w", name, err)
		}
	}
	if _, ok := out.layer["sim.events"]; !ok {
		n := simOps(p.seconds)
		exact, simLayer, _, err := goldenRound(n)
		if err != nil {
			return err
		}
		var audit auditResult
		if _, err := checkGolden(exact, n, &audit); err != nil {
			return err
		}
		out.failed += audit.failed
		out.problems = append(out.problems, audit.problems...)
		for k, v := range simLayer {
			layer[k] = v
		}
	}

	ladder, problems, err := runLadder(p, layer)
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	overhead, tracers, more, err := traceOverhead(p)
	if err != nil {
		return fmt.Errorf("trace overhead: %w", err)
	}
	for _, pr := range append(problems, more...) {
		out.failed++
		out.problems = append(out.problems, pr)
	}
	layer["trace.overhead_frac"] = overhead
	tracers = append(tracers, ladder)
	var spans int
	for _, t := range tracers {
		spans += len(t.spans)
	}
	layer["trace.spans"] = float64(spans)
	tracePath := filepath.Join(p.tmp, "trace.json")
	if err := writeChromeTrace(tracePath, tracers); err != nil {
		return err
	}
	out.notef("traced pass: %d spans written to %s (Chrome trace-event JSON)", spans, tracePath)

	for k, v := range out.layer {
		layer[k] = v // the workload's own measurements win
	}
	layer["failed_frac"] = float64(out.failed) / float64(max(out.attempted, 1))
	out.layer = layer
	return nil
}
