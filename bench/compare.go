package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// resultSet is a full set of runs of one commit: for every workload, the
// end-to-end metrics of each untraced run and the per-layer metrics of one
// traced pass. It is what -out writes and -compare reads.
type resultSet struct {
	Environment environment                `json:"environment"`
	Seconds     float64                    `json:"seconds"`
	Workloads   map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	Seeds     []uint64             `json:"seeds"`
	Attempted []int64              `json:"attempted"`
	Failed    []int64              `json:"failed"`
	EndToEnd  map[string][]float64 `json:"end_to_end"` // one value per seed
	PerLayer  map[string]float64   `json:"per_layer"`
}

// exactLayerMetrics are simulated and must agree to the last digit
// between any two sets of runs of one commit.
var exactLayerMetrics = []string{
	"sim_insert_cycles", "sim_delete_cycles", "sim.events", "sim.simulated_cycles",
	"simpq.FunnelTree.p99_cycles", "simpq.SimpleLinear.mean_cycles", "simpq.MultiQueue.mean_cycles",
	"simpq.FunnelTree.combine_frac", "simpq.FunnelTree.elim_frac",
}

// runSelf runs this program once more as a child process, so that every
// run starts from a fresh heap exactly as a driver's run does, and
// returns the parsed result line.
func runSelf(o options, workload string, seed uint64, trace int, human io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace), "-tmp", o.tmp)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	for _, l := range lines[:len(lines)-1] {
		fmt.Fprintln(human, "    "+l)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: no result line (%v): %v", workload, seed, runErr, err)
	}
	return &res, nil
}

// runAll makes one result set (or, with several -out files, that many)
// of -runs untraced runs and one traced pass per workload, prints every
// metric by name with its unit, and reports whether every run was correct.
// Runs go seed by seed, every workload and set in turn, so that each
// workload's runs are spread over the whole time and every set sees the
// same phases of a drifting host.
func runAll(o options, w io.Writer) (bool, error) {
	outs := strings.Split(o.out, ",")
	sets := make([]resultSet, len(outs))
	for k := range sets {
		sets[k] = resultSet{Environment: currentEnvironment(), Seconds: o.seconds, Workloads: map[string]*workloadResult{}}
		for _, ws := range workloadSpecs {
			sets[k].Workloads[ws.Name] = &workloadResult{EndToEnd: map[string][]float64{}, PerLayer: map[string]float64{}}
		}
	}
	allCorrect := true
	for i := 0; i < o.runs; i++ {
		for _, ws := range workloadSpecs {
			for k := range sets {
				seed := o.seed + uint64(i*len(sets)+k)
				fmt.Fprintf(w, "== %s, set %d, seed %d\n", ws.Name, k+1, seed)
				res, err := runSelf(o, ws.Name, seed, 0, w)
				if err != nil {
					return false, err
				}
				allCorrect = allCorrect && res.Correct
				wr := sets[k].Workloads[ws.Name]
				wr.Seeds = append(wr.Seeds, seed)
				wr.Attempted = append(wr.Attempted, res.Attempted)
				wr.Failed = append(wr.Failed, res.Failed)
				for _, m := range endToEndSpecs {
					wr.EndToEnd[m.Name] = append(wr.EndToEnd[m.Name], res.Metrics[m.Name].Value)
				}
			}
		}
	}
	for _, ws := range workloadSpecs {
		for k := range sets {
			fmt.Fprintf(w, "== %s, set %d, traced pass\n", ws.Name, k+1)
			res, err := runSelf(o, ws.Name, o.seed+uint64(k), 1, w)
			if err != nil {
				return false, err
			}
			allCorrect = allCorrect && res.Correct
			for _, m := range perLayerSpecs {
				sets[k].Workloads[ws.Name].PerLayer[m.Name] = res.Metrics[m.Name].Value
			}
		}
	}

	for k, set := range sets {
		fmt.Fprintf(w, "\n== summary of set %d: %d untraced run(s) per workload at %g s; medians, with the quartile spread over runs\n", k+1, o.runs, o.seconds)
		for _, ws := range workloadSpecs {
			wr := set.Workloads[ws.Name]
			for _, m := range endToEndSpecs {
				xs := wr.EndToEnd[m.Name]
				fmt.Fprintf(w, "%-16s %-16s %14.6g %-4s", ws.Name, m.Name, median(xs), m.Unit)
				if len(xs) >= 2 {
					fmt.Fprintf(w, "  spread %5.1f%%  bound %4.0f%%", 100*spread(xs), 100**m.Bound)
				}
				fmt.Fprintln(w)
			}
		}
		for _, ws := range workloadSpecs {
			for _, m := range perLayerSpecs {
				fmt.Fprintf(w, "%-16s %-40s %14.6g %s\n", ws.Name, m.Name, set.Workloads[ws.Name].PerLayer[m.Name], m.Unit)
			}
		}
		if outs[k] == "" {
			continue
		}
		b, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(outs[k], append(b, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	return allCorrect, nil
}

func readResultSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(b, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// worseBy is how much worse b is than a, as a share of a, given which
// direction is better; negative means b is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the relative difference and the bound, and reports whether b stays
// within every bound of a, no run failed, and every exact simulated
// number is identical.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResultSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultSet(pathB)
	if err != nil {
		return false, err
	}
	out := bufio.NewWriter(w)
	defer out.Flush()
	ok := true
	fmt.Fprintf(out, "%-16s %-16s %14s %14s %9s %6s\n", "workload", "metric", "a (median)", "b (median)", "b worse", "bound")
	for _, ws := range workloadSpecs {
		wa, wb := a.Workloads[ws.Name], b.Workloads[ws.Name]
		if wa == nil || wb == nil {
			fmt.Fprintf(out, "%-16s missing from one set\n", ws.Name)
			ok = false
			continue
		}
		for _, m := range endToEndSpecs {
			ma, mb := median(wa.EndToEnd[m.Name]), median(wb.EndToEnd[m.Name])
			worse := worseBy(ma, mb, m.Better)
			verdict := ""
			if worse > *m.Bound {
				verdict = "  PAST THE BOUND"
				ok = false
			}
			fmt.Fprintf(out, "%-16s %-16s %14.6g %14.6g %+8.1f%% %5.0f%%%s\n", ws.Name, m.Name, ma, mb, 100*worse, 100**m.Bound, verdict)
		}
		for _, set := range []*workloadResult{wa, wb} {
			for i, f := range set.Failed {
				if f != 0 {
					fmt.Fprintf(out, "%-16s seed %d: %d failed of %d attempted\n", ws.Name, set.Seeds[i], f, set.Attempted[i])
					ok = false
				}
			}
		}
		for _, name := range exactLayerMetrics {
			if va, vb := wa.PerLayer[name], wb.PerLayer[name]; va != vb {
				fmt.Fprintf(out, "%-16s %s is simulated and must repeat exactly: %v vs %v\n", ws.Name, name, va, vb)
				ok = false
			}
		}
	}
	return ok, nil
}
