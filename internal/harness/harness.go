// Package harness defines the experiments that regenerate every table and
// figure of the paper's evaluation (Section 4), runs the parameter sweeps
// on the simulator, and renders aligned text tables and CSV.
package harness

import (
	"fmt"
	"io"
	"strings"

	"pq/internal/sim"
	"pq/internal/simpq"
)

// customMachine builds a default machine for procs processors and
// returns the queue capacity a run of cfg on it needs — the formula
// simpq's own build path uses — for experiments that build their queue
// by hand.
func customMachine(procs int, cfg simpq.WorkloadConfig) (*sim.Machine, int, error) {
	m, err := sim.New(sim.DefaultConfig(procs))
	return m, procs*cfg.OpsPerProc*max(cfg.Batch, 1) + cfg.Prefill + 1, err
}

// Point is one measured cell of an experiment: a configuration and its
// latency results.
type Point struct {
	Algorithm string
	Procs     int
	Pris      int
	X         float64 // sweep coordinate (procs, priorities, or dec %)
	Result    simpq.Result
}

// Experiment is a named, runnable reproduction of one paper figure or
// table.
type Experiment struct {
	ID       string
	Title    string
	PaperRef string
	// Run executes the sweep; scale in (0,1] shrinks the workload for
	// quick runs (bench mode), 1 is the full configuration.
	Run func(scale float64, progress func(string)) ([]Point, error)
	// Render writes the rows/series the paper reports.
	Render func(w io.Writer, pts []Point)
}

// scaleOps scales the per-processor operation count, keeping at least a
// handful of operations so means stay meaningful.
func scaleOps(base int, scale float64) int {
	n := int(float64(base) * scale)
	if n < 5 {
		n = 5
	}
	return n
}

// seriesTable renders points grouped into one column per algorithm with
// the sweep coordinate in the first column — the shape of the paper's
// line graphs, as text.
func seriesTable(w io.Writer, pts []Point, xName string, xFmt func(float64) string) {
	algs := make([]string, 0, 8)
	seen := map[string]bool{}
	xs := make([]float64, 0, 16)
	xSeen := map[float64]bool{}
	cell := map[string]map[float64]float64{}
	for _, p := range pts {
		if !seen[p.Algorithm] {
			seen[p.Algorithm] = true
			algs = append(algs, p.Algorithm)
			cell[p.Algorithm] = map[float64]float64{}
		}
		if !xSeen[p.X] {
			xSeen[p.X] = true
			xs = append(xs, p.X)
		}
		cell[p.Algorithm][p.X] = p.Result.MeanAll
	}

	head := make([]string, 0, len(algs)+1)
	head = append(head, xName)
	head = append(head, algs...)
	rows := make([][]string, 0, len(xs))
	for _, x := range xs {
		row := make([]string, 0, len(algs)+1)
		row = append(row, xFmt(x))
		for _, a := range algs {
			if v, ok := cell[a][x]; ok {
				row = append(row, fmt.Sprintf("%.0f", v))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	writeAligned(w, head, rows)
}

// writeAligned prints a column-aligned table.
func writeAligned(w io.Writer, head []string, rows [][]string) {
	width := make([]int, len(head))
	for i, h := range head {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%*s", width[i], c)
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(head)
	sep := make([]string, len(head))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
}

// WriteCSV renders points as CSV (one row per point).
func WriteCSV(w io.Writer, pts []Point) {
	fmt.Fprintln(w, "algorithm,procs,priorities,x,mean_all,mean_insert,mean_delete,inserts,deletes,failed_deletes,sim_cycles,sim_events")
	for _, p := range pts {
		fmt.Fprintf(w, "%s,%d,%d,%g,%.1f,%.1f,%.1f,%d,%d,%d,%d,%d\n",
			p.Algorithm, p.Procs, p.Pris, p.X,
			p.Result.MeanAll, p.Result.MeanInsert, p.Result.MeanDelete,
			p.Result.Inserts, p.Result.Deletes, p.Result.FailedDeletes,
			p.Result.Stats.FinalTime, p.Result.Stats.Events)
	}
}

// All returns every experiment, keyed by ID, in presentation order.
func All() []*Experiment {
	return []*Experiment{
		Fig5Left(), Fig5Right(), Fig6(), Fig7(), Fig8(), Fig9(),
		AblateCutoff(), AblateAdaption(), Fairness(), Stragglers(),
		SteadyState(), Sensitivity(),
	}
}

// ByID finds an experiment by its ID.
func ByID(id string) (*Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return nil, fmt.Errorf("harness: unknown experiment %q", id)
}
