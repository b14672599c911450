package harness

import (
	"fmt"
	"io"

	"pq/internal/sim"
	"pq/internal/simpq"
)

// Sensitivity answers the reproduction's main threat to validity: do the
// paper's conclusions depend on our particular cost-model constants? It
// re-runs the Figure-7 endpoint (256 processors, 16 priorities) across a
// grid of remote-latency and hot-spot-occupancy values and reports the
// FunnelTree-versus-baseline ratios for each machine.
func Sensitivity() *Experiment {
	return &Experiment{
		ID:       "sensitivity",
		Title:    "Cost-model sensitivity of the Figure-7 conclusion (256 processors)",
		PaperRef: "threat-to-validity analysis (beyond the paper)",
		Run: func(scale float64, progress func(string)) ([]Point, error) {
			cfg := simpq.DefaultWorkload()
			cfg.OpsPerProc = scaleOps(cfg.OpsPerProc, scale)
			algs := []simpq.Algorithm{simpq.AlgSimpleLinear, simpq.AlgSimpleTree, simpq.AlgFunnelTree}
			var s sweep[Point]
			grid := []struct{ remote, occ int64 }{
				{20, 5}, {20, 20}, {40, 10}, {40, 40}, {80, 10}, {80, 40},
			}
			for gi, g := range grid {
				s.label(fmt.Sprintf("remote=%d occupancy=%d", g.remote, g.occ))
				for _, alg := range algs {
					s.add(func() (Point, error) {
						simCfg := sim.DefaultConfig(256)
						simCfg.RemoteCost = g.remote
						simCfg.Occupancy = g.occ
						r, _, err := simpq.WorkloadOnMachine(alg, 16, cfg, simCfg, 0)
						// Encode the grid cell in X; the renderer decodes.
						return Point{Algorithm: string(alg), Procs: 256, Pris: 16, X: float64(gi), Result: r}, err
					})
				}
			}
			return s.run(progress)
		},
		Render: func(w io.Writer, pts []Point) {
			grid := []struct{ remote, occ int64 }{
				{20, 5}, {20, 20}, {40, 10}, {40, 40}, {80, 10}, {80, 40},
			}
			head := []string{"remote", "occupancy", "SimpleLinear", "SimpleTree", "FunnelTree", "ST/FT", "SL/FT"}
			byCell := map[int]map[string]float64{}
			for _, p := range pts {
				gi := int(p.X)
				if byCell[gi] == nil {
					byCell[gi] = map[string]float64{}
				}
				byCell[gi][p.Algorithm] = p.Result.MeanAll
			}
			var rows [][]string
			for gi, g := range grid {
				m := byCell[gi]
				ft := m[string(simpq.AlgFunnelTree)]
				rows = append(rows, []string{
					fmt.Sprintf("%d", g.remote),
					fmt.Sprintf("%d", g.occ),
					fmt.Sprintf("%.0f", m[string(simpq.AlgSimpleLinear)]),
					fmt.Sprintf("%.0f", m[string(simpq.AlgSimpleTree)]),
					fmt.Sprintf("%.0f", ft),
					fmt.Sprintf("%.1fx", m[string(simpq.AlgSimpleTree)]/ft),
					fmt.Sprintf("%.1fx", m[string(simpq.AlgSimpleLinear)]/ft),
				})
			}
			writeAligned(w, head, rows)
			fmt.Fprintln(w, "\nthe conclusion holds whenever ST/FT and SL/FT stay above 1.")
		},
	}
}
