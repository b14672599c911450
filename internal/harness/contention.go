package harness

import (
	"fmt"
	"io"
	"sort"

	"pq/internal/sim"
	"pq/internal/simpq"
)

// StructureContention aggregates the simulator's per-word contention
// profile by labeled structure: where each algorithm's wait cycles go.
type StructureContention struct {
	Structure  string
	Words      int
	Accesses   int64
	Contended  int64
	WaitCycles int64
}

// ContentionReport holds one algorithm's contention breakdown for a
// workload.
type ContentionReport struct {
	Algorithm  simpq.Algorithm
	Procs      int
	Pris       int
	Result     simpq.Result
	Structures []StructureContention
	TopWords   []sim.HotSpot
}

// ProfileContention runs the paper's workload with the contention
// profiler on and aggregates the result per structure. It quantifies the
// paper's central claim directly: which words are hot spots in each
// algorithm, and how much latency they cost.
func ProfileContention(alg simpq.Algorithm, procs, npri int, scale float64) (*ContentionReport, error) {
	cfg := simpq.DefaultWorkload()
	cfg.OpsPerProc = scaleOps(cfg.OpsPerProc, scale)
	simCfg := sim.DefaultConfig(procs)
	simCfg.Profile = true
	res, spots, err := simpq.WorkloadOnMachine(alg, npri, cfg, simCfg, 0x7fffffff)
	if err != nil {
		return nil, err
	}
	agg := map[string]*StructureContention{}
	for _, s := range spots {
		name := s.Name
		if name == "" {
			name = "(unlabeled)"
		}
		sc := agg[name]
		if sc == nil {
			sc = &StructureContention{Structure: name}
			agg[name] = sc
		}
		sc.Words++
		sc.Accesses += s.Accesses
		sc.Contended += s.Contended
		sc.WaitCycles += s.WaitCycles
	}
	rep := &ContentionReport{Algorithm: alg, Procs: procs, Pris: npri, Result: res}
	for _, sc := range agg {
		rep.Structures = append(rep.Structures, *sc)
	}
	// Ties break by name: the structures come out of a map, and the
	// report must be the same on every run.
	sort.Slice(rep.Structures, func(i, j int) bool {
		a, b := rep.Structures[i], rep.Structures[j]
		if a.WaitCycles != b.WaitCycles {
			return a.WaitCycles > b.WaitCycles
		}
		return a.Structure < b.Structure
	})
	if len(spots) > 10 {
		spots = spots[:10]
	}
	rep.TopWords = spots
	return rep, nil
}

// Render writes the report as aligned tables.
func (r *ContentionReport) Render(w io.Writer) {
	fmt.Fprintf(w, "%s, %d processors, %d priorities: mean latency %.0f cycles/op\n\n",
		r.Algorithm, r.Procs, r.Pris, r.Result.MeanAll)
	head := []string{"structure", "words", "accesses", "contended", "wait cycles"}
	var rows [][]string
	for _, s := range r.Structures {
		rows = append(rows, []string{
			s.Structure,
			fmt.Sprintf("%d", s.Words),
			fmt.Sprintf("%d", s.Accesses),
			fmt.Sprintf("%d", s.Contended),
			fmt.Sprintf("%d", s.WaitCycles),
		})
	}
	writeAligned(w, head, rows)
	fmt.Fprintln(w, "\nhottest words:")
	head = []string{"addr", "structure", "accesses", "contended", "wait cycles"}
	rows = rows[:0]
	for _, s := range r.TopWords {
		rows = append(rows, []string{
			fmt.Sprintf("%d", s.Addr),
			s.Name,
			fmt.Sprintf("%d", s.Accesses),
			fmt.Sprintf("%d", s.Contended),
			fmt.Sprintf("%d", s.WaitCycles),
		})
	}
	writeAligned(w, head, rows)
}
