package harness

import (
	"fmt"
	"io"

	"pq/internal/simpq"
)

// Fairness quantifies the paper's Section 3.2 trade-off: LIFO funnel
// stacks are simple and eliminate well but "can cause unfairness (and
// even starvation) among items of equal priority"; the suggested hybrid
// keeps elimination in the funnel and stores items FIFO. This experiment
// runs FunnelTree with both bin disciplines and reports item sojourn
// times (delete cycle minus insert cycle) alongside access latency.
func Fairness() *Experiment {
	return &Experiment{
		ID:       "fairness",
		Title:    "Item sojourn under LIFO vs hybrid-FIFO funnel bins (FunnelTree, 16 priorities)",
		PaperRef: "Section 3.2",
		Run: func(scale float64, progress func(string)) ([]Point, error) {
			cfg := simpq.DefaultWorkload()
			cfg.OpsPerProc = scaleOps(cfg.OpsPerProc, scale)
			var s sweep[Point]
			for _, fifo := range []bool{false, true} {
				name := "LIFO bins"
				if fifo {
					name = "hybrid FIFO bins"
				}
				s.label(name)
				for _, procs := range []int{16, 64, 256} {
					s.add(func() (Point, error) {
						m, maxItems, err := customMachine(procs, cfg)
						if err != nil {
							return Point{}, err
						}
						q := simpq.NewFunnelTreeDiscipline(m, 16, maxItems,
							simpq.DefaultFunnelParams(procs), simpq.DefaultFunnelCutoff, fifo)
						r, err := simpq.SojournWorkload(m, q, cfg)
						res := r.Latency
						// Smuggle the sojourn stats through the generic Point:
						// mean in MeanInsert, p99 in MeanDelete (labeled by the
						// renderer below).
						res.MeanInsert = r.Sojourn.Mean
						res.MeanDelete = r.Sojourn.P99
						return Point{Algorithm: name, Procs: procs, Pris: 16, X: float64(procs), Result: res}, err
					})
				}
			}
			return s.run(progress)
		},
		Render: func(w io.Writer, pts []Point) {
			head := []string{"procs", "bins", "access latency", "mean sojourn", "p99 sojourn"}
			var rows [][]string
			for _, p := range pts {
				rows = append(rows, []string{
					fmt.Sprintf("%d", p.Procs),
					p.Algorithm,
					fmt.Sprintf("%.0f", p.Result.MeanAll),
					fmt.Sprintf("%.0f", p.Result.MeanInsert),
					fmt.Sprintf("%.0f", p.Result.MeanDelete),
				})
			}
			writeAligned(w, head, rows)
			fmt.Fprintln(w, "\nsojourn = cycles an item waited between insert and delivery;")
			fmt.Fprintln(w, "LIFO bins favour fresh items, stretching the tail for old ones.")
		},
	}
}
