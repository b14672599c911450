package harness

import (
	"fmt"
	"io"

	"pq/internal/core"
	"pq/internal/simpq"
)

// procSweepLow is Figure 6's concurrency range, procSweepHigh Figures 5
// (left) and 7's.
var (
	procSweepLow  = []int{2, 4, 6, 8, 10, 12, 14, 16}
	procSweepHigh = []int{2, 4, 8, 16, 32, 64, 128, 256}
	priSweep      = []int{2, 4, 8, 16, 32, 64, 128, 256, 512}
)

// fastAlgorithms are the four scalable methods compared at high
// concurrency (Figures 7-9).
var fastAlgorithms = []simpq.Algorithm{
	simpq.AlgSimpleLinear, simpq.AlgSimpleTree,
	simpq.AlgLinearFunnels, simpq.AlgFunnelTree,
}

func queuePoint(alg simpq.Algorithm, procs, npri int, cfg simpq.WorkloadConfig, x float64) (Point, error) {
	r, err := simpq.RunWorkload(alg, procs, npri, cfg)
	if err != nil {
		return Point{}, fmt.Errorf("%s procs=%d npri=%d: %w", alg, procs, npri, err)
	}
	return Point{Algorithm: string(alg), Procs: procs, Pris: npri, X: x, Result: r}, nil
}

// Fig6 compares all seven implementations at 16 priorities and low
// concurrency (2..16 processors).
func Fig6() *Experiment {
	return &Experiment{
		ID:       "fig6",
		Title:    "Latency of all queue implementations, 16 priorities, low concurrency",
		PaperRef: "Figure 6",
		Run: func(scale float64, progress func(string)) ([]Point, error) {
			cfg := simpq.DefaultWorkload()
			cfg.OpsPerProc = scaleOps(cfg.OpsPerProc, scale)
			var s sweep[Point]
			for _, alg := range core.Algorithms {
				s.label(string(alg))
				for _, procs := range procSweepLow {
					s.add(func() (Point, error) { return queuePoint(alg, procs, 16, cfg, float64(procs)) })
				}
			}
			return s.run(progress)
		},
		Render: func(w io.Writer, pts []Point) {
			seriesTable(w, pts, "procs", func(x float64) string { return fmt.Sprintf("%.0f", x) })
		},
	}
}

// Fig7 compares the four scalable methods at 16 priorities across the
// full concurrency range (2..256 processors).
func Fig7() *Experiment {
	return &Experiment{
		ID:       "fig7",
		Title:    "Latency of scalable queue implementations, 16 priorities, full concurrency range",
		PaperRef: "Figure 7",
		Run: func(scale float64, progress func(string)) ([]Point, error) {
			cfg := simpq.DefaultWorkload()
			cfg.OpsPerProc = scaleOps(cfg.OpsPerProc, scale)
			var s sweep[Point]
			for _, alg := range fastAlgorithms {
				s.label(string(alg))
				for _, procs := range procSweepHigh {
					s.add(func() (Point, error) { return queuePoint(alg, procs, 16, cfg, float64(procs)) })
				}
			}
			return s.run(progress)
		},
		Render: func(w io.Writer, pts []Point) {
			seriesTable(w, pts, "procs", func(x float64) string { return fmt.Sprintf("%.0f", x) })
		},
	}
}

// Fig8 reproduces the table of insert/delete-min latency break-downs for
// the four scalable methods at P in {16,64,256} and N in {16,128}.
func Fig8() *Experiment {
	return &Experiment{
		ID:       "fig8",
		Title:    "Insert and delete-min latency break-down (thousands of cycles)",
		PaperRef: "Figure 8 (table)",
		Run: func(scale float64, progress func(string)) ([]Point, error) {
			cfg := simpq.DefaultWorkload()
			cfg.OpsPerProc = scaleOps(cfg.OpsPerProc, scale)
			var s sweep[Point]
			for _, procs := range []int{16, 64, 256} {
				for _, npri := range []int{16, 128} {
					s.label(fmt.Sprintf("P=%d N=%d", procs, npri))
					for _, alg := range fastAlgorithms {
						s.add(func() (Point, error) { return queuePoint(alg, procs, npri, cfg, float64(procs)) })
					}
				}
			}
			return s.run(progress)
		},
		Render: func(w io.Writer, pts []Point) {
			head := []string{"P", "N"}
			for _, alg := range fastAlgorithms {
				head = append(head, string(alg)+" Ins.", string(alg)+" Del.", string(alg)+" All")
			}
			k := func(v float64) string { return fmt.Sprintf("%.1f", v/1000) }
			var rows [][]string
			for _, procs := range []int{16, 64, 256} {
				for _, npri := range []int{16, 128} {
					row := []string{fmt.Sprintf("%d", procs), fmt.Sprintf("%d", npri)}
					for _, alg := range fastAlgorithms {
						for _, p := range pts {
							if p.Algorithm == string(alg) && p.Procs == procs && p.Pris == npri {
								row = append(row, k(p.Result.MeanInsert), k(p.Result.MeanDelete), k(p.Result.MeanAll))
							}
						}
					}
					rows = append(rows, row)
				}
			}
			writeAligned(w, head, rows)
		},
	}
}

// Fig9 sweeps the number of priorities (2..512) at 64 and 256 processors.
func Fig9() *Experiment {
	return &Experiment{
		ID:       "fig9",
		Title:    "Latency vs number of priorities at 64 and 256 processors",
		PaperRef: "Figure 9",
		Run: func(scale float64, progress func(string)) ([]Point, error) {
			cfg := simpq.DefaultWorkload()
			cfg.OpsPerProc = scaleOps(cfg.OpsPerProc, scale)
			var s sweep[Point]
			for _, procs := range []int{64, 256} {
				for _, alg := range fastAlgorithms {
					if procs == 256 && alg == simpq.AlgSimpleTree {
						// The paper omits SimpleTree at 256 processors ("it
						// was off the graph").
						continue
					}
					s.label(fmt.Sprintf("%s P=%d", alg, procs))
					for _, npri := range priSweep {
						s.add(func() (Point, error) { return queuePoint(alg, procs, npri, cfg, float64(npri)) })
					}
				}
			}
			return s.run(progress)
		},
		Render: func(w io.Writer, pts []Point) {
			for _, procs := range []int{64, 256} {
				fmt.Fprintf(w, "\n-- %d processors --\n", procs)
				var sub []Point
				for _, p := range pts {
					if p.Procs == procs {
						sub = append(sub, p)
					}
				}
				seriesTable(w, sub, "priorities", func(x float64) string { return fmt.Sprintf("%.0f", x) })
			}
		},
	}
}

// Fig5Left compares combining-funnel fetch-and-add against the bounded
// decrement with elimination across the concurrency range at a balanced
// increment/decrement mix.
func Fig5Left() *Experiment {
	return &Experiment{
		ID:       "fig5l",
		Title:    "Funnel fetch-and-add vs BFaD with elimination, 50/50 mix",
		PaperRef: "Figure 5 (left)",
		Run: func(scale float64, progress func(string)) ([]Point, error) {
			ops := scaleOps(60, scale)
			var s sweep[Point]
			for _, bounded := range []bool{false, true} {
				name := "Fetch-and-add"
				if bounded {
					name = "BFaD with elimination"
				}
				s.label(name)
				for _, procs := range []int{4, 8, 16, 32, 64, 128, 256} {
					s.add(func() (Point, error) {
						r, err := simpq.CounterWorkload(procs, ops, 0.5, bounded, 50)
						return Point{Algorithm: name, Procs: procs, X: float64(procs), Result: r}, err
					})
				}
			}
			return s.run(progress)
		},
		Render: func(w io.Writer, pts []Point) {
			seriesTable(w, pts, "procs", func(x float64) string { return fmt.Sprintf("%.0f", x) })
		},
	}
}

// Fig5Right fixes 256 processors and sweeps the fraction of decrement
// operations from 0% to 100%.
func Fig5Right() *Experiment {
	return &Experiment{
		ID:       "fig5r",
		Title:    "Funnel fetch-and-add vs BFaD at 256 processors, varying decrement share",
		PaperRef: "Figure 5 (right)",
		Run: func(scale float64, progress func(string)) ([]Point, error) {
			ops := scaleOps(40, scale)
			var s sweep[Point]
			for _, bounded := range []bool{false, true} {
				name := "Fetch-and-add"
				if bounded {
					name = "BFaD with elimination"
				}
				s.label(name)
				for dec := 0; dec <= 100; dec += 20 {
					s.add(func() (Point, error) {
						r, err := simpq.CounterWorkload(256, ops, float64(dec)/100, bounded, 50)
						return Point{Algorithm: name, Procs: 256, X: float64(dec), Result: r}, err
					})
				}
			}
			return s.run(progress)
		},
		Render: func(w io.Writer, pts []Point) {
			seriesTable(w, pts, "% dec", func(x float64) string { return fmt.Sprintf("%.0f", x) })
		},
	}
}

// AblateCutoff sweeps FunnelTree's funnel cut-off level (the paper's
// Section 3.2 design choice: funnels in the top 4 levels, locks below,
// at a reported ~5% cost versus funnels everywhere).
func AblateCutoff() *Experiment {
	return &Experiment{
		ID:       "ablate-cutoff",
		Title:    "FunnelTree funnel cut-off level ablation (128 priorities, 256 processors)",
		PaperRef: "Section 3.2",
		Run: func(scale float64, progress func(string)) ([]Point, error) {
			cfg := simpq.DefaultWorkload()
			cfg.OpsPerProc = scaleOps(cfg.OpsPerProc, scale)
			const procs, npri = 256, 128
			var s sweep[Point]
			for _, cutoff := range []int{0, 2, 4, 8} {
				name := fmt.Sprintf("cutoff=%d", cutoff)
				s.label(name)
				s.add(func() (Point, error) {
					m, maxItems, err := customMachine(procs, cfg)
					if err != nil {
						return Point{}, err
					}
					q := simpq.NewFunnelTreeCutoff(m, npri, maxItems, simpq.DefaultFunnelParams(procs), cutoff)
					r, err := simpq.DriveWorkload(m, q, cfg)
					return Point{Algorithm: name, Procs: procs, Pris: npri, X: float64(cutoff), Result: r}, err
				})
			}
			return s.run(progress)
		},
		Render: func(w io.Writer, pts []Point) {
			head := []string{"cutoff levels", "latency", "insert", "delete"}
			var rows [][]string
			for _, p := range pts {
				rows = append(rows, []string{
					fmt.Sprintf("%.0f", p.X),
					fmt.Sprintf("%.0f", p.Result.MeanAll),
					fmt.Sprintf("%.0f", p.Result.MeanInsert),
					fmt.Sprintf("%.0f", p.Result.MeanDelete),
				})
			}
			writeAligned(w, head, rows)
		},
	}
}

// AblateAdaption toggles the funnels' local width adaption on the
// FunnelTree queue across the concurrency range.
func AblateAdaption() *Experiment {
	return &Experiment{
		ID:       "ablate-adaption",
		Title:    "Funnel adaption on/off for FunnelTree, 16 priorities",
		PaperRef: "Section 3.1",
		Run: func(scale float64, progress func(string)) ([]Point, error) {
			cfg := simpq.DefaultWorkload()
			cfg.OpsPerProc = scaleOps(cfg.OpsPerProc, scale)
			var s sweep[Point]
			for _, adaptive := range []bool{true, false} {
				name := "adaptive"
				if !adaptive {
					name = "fixed-width"
				}
				s.label(name)
				for _, procs := range []int{4, 16, 64, 256} {
					s.add(func() (Point, error) {
						m, maxItems, err := customMachine(procs, cfg)
						if err != nil {
							return Point{}, err
						}
						params := simpq.DefaultFunnelParams(procs)
						params.Adaptive = adaptive
						q := simpq.NewFunnelTree(m, 16, maxItems, params)
						r, err := simpq.DriveWorkload(m, q, cfg)
						return Point{Algorithm: name, Procs: procs, Pris: 16, X: float64(procs), Result: r}, err
					})
				}
			}
			return s.run(progress)
		},
		Render: func(w io.Writer, pts []Point) {
			seriesTable(w, pts, "procs", func(x float64) string { return fmt.Sprintf("%.0f", x) })
		},
	}
}
