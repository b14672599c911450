package harness

import (
	"fmt"
	"io"

	"pq/internal/simpq"
)

// SteadyState measures the queues with a prefilled queue instead of the
// paper's empty start. Starting empty means roughly half the early
// delete-min calls fail and the tree counters sit at their bounds;
// prefilling 4 items per processor keeps the queue non-empty throughout,
// which is the regime a deployed scheduler actually runs in.
func SteadyState() *Experiment {
	return &Experiment{
		ID:       "steadystate",
		Title:    "Empty-start vs prefilled queue (16 priorities)",
		PaperRef: "workload variant (beyond the paper)",
		Run: func(scale float64, progress func(string)) ([]Point, error) {
			base := simpq.DefaultWorkload()
			base.OpsPerProc = scaleOps(base.OpsPerProc, scale)
			var s sweep[Point]
			for _, alg := range fastAlgorithms {
				s.label(string(alg))
				for _, procs := range []int{64, 256} {
					for _, prefill := range []int{0, 1} {
						cfg := base
						cfg.Prefill = prefill * 4 * procs
						s.add(func() (Point, error) { return queuePoint(alg, procs, 16, cfg, float64(prefill)) })
					}
				}
			}
			return s.run(progress)
		},
		Render: func(w io.Writer, pts []Point) {
			head := []string{"algorithm", "procs", "empty start", "failed dels", "prefilled", "failed dels"}
			type key struct {
				alg   string
				procs int
			}
			cells := map[key][2]Point{}
			var order []key
			for _, p := range pts {
				k := key{p.Algorithm, p.Procs}
				c, seen := cells[k]
				if !seen {
					order = append(order, k)
				}
				c[int(p.X)] = p
				cells[k] = c
			}
			var rows [][]string
			for _, k := range order {
				c := cells[k]
				rows = append(rows, []string{
					k.alg, fmt.Sprintf("%d", k.procs),
					fmt.Sprintf("%.0f", c[0].Result.MeanAll),
					fmt.Sprintf("%d", c[0].Result.FailedDeletes),
					fmt.Sprintf("%.0f", c[1].Result.MeanAll),
					fmt.Sprintf("%d", c[1].Result.FailedDeletes),
				})
			}
			writeAligned(w, head, rows)
		},
	}
}
