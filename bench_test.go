package pq_test

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"pq"
	"pq/internal/funnel"
	"pq/internal/harness"
)

// Benchmarks come in two families:
//
//   - BenchmarkFig* / BenchmarkAblate*: regenerate the paper's figures
//     and tables on the deterministic simulator at a reduced scale and
//     report mean simulated cycles per queue access. Full-scale runs:
//     cmd/pqbench. One benchmark iteration = one full experiment sweep.
//
//   - BenchmarkNative*: measure the native goroutine implementations on
//     the host (ns/op of the paper's mixed workload).

const benchScale = 0.2

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	exp, err := harness.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		pts, err := exp.Run(benchScale, func(string) {})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			// Report the headline series: mean latency of each algorithm's
			// largest configuration in the sweep.
			last := map[string]float64{}
			for _, p := range pts {
				last[p.Algorithm] = p.Result.MeanAll
			}
			for alg, v := range last {
				unit := "cycles/" + strings.ReplaceAll(alg, " ", "-")
				b.ReportMetric(v, unit)
			}
		}
	}
}

func BenchmarkFig5Left(b *testing.B)  { benchExperiment(b, "fig5l") }
func BenchmarkFig5Right(b *testing.B) { benchExperiment(b, "fig5r") }
func BenchmarkFig6(b *testing.B)      { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)      { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)      { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)      { benchExperiment(b, "fig9") }

func BenchmarkAblateCutoff(b *testing.B)   { benchExperiment(b, "ablate-cutoff") }
func BenchmarkAblateAdaption(b *testing.B) { benchExperiment(b, "ablate-adaption") }
func BenchmarkFairness(b *testing.B)       { benchExperiment(b, "fairness") }
func BenchmarkStragglers(b *testing.B)     { benchExperiment(b, "stragglers") }
func BenchmarkSteadyState(b *testing.B)    { benchExperiment(b, "steadystate") }
func BenchmarkSensitivity(b *testing.B)    { benchExperiment(b, "sensitivity") }

// BenchmarkNativeMixed drives the paper's 50/50 workload on the native
// queues with one goroutine per benchmark P (b.RunParallel).
func BenchmarkNativeMixed(b *testing.B) {
	for _, alg := range pq.Algorithms() {
		for _, npri := range []int{16, 128} {
			b.Run(fmt.Sprintf("%s/pris=%d", alg, npri), func(b *testing.B) {
				q, err := pq.New[int](alg, npri)
				if err != nil {
					b.Fatal(err)
				}
				b.RunParallel(func(p *testing.PB) {
					i := 0
					for p.Next() {
						if i%2 == 0 {
							q.Insert((i*13)%npri, i)
						} else {
							q.DeleteMin()
						}
						i++
					}
				})
			})
		}
	}
}

// BenchmarkNativeInsert measures pure insertion throughput.
func BenchmarkNativeInsert(b *testing.B) {
	for _, alg := range pq.Algorithms() {
		b.Run(string(alg), func(b *testing.B) {
			q, err := pq.New[int](alg, 16)
			if err != nil {
				b.Fatal(err)
			}
			b.RunParallel(func(p *testing.PB) {
				i := 0
				for p.Next() {
					q.Insert(i%16, i)
					i++
				}
			})
		})
	}
}

// funnelOpts returns no options, or with always set the default funnel
// tuning for GOMAXPROCS goroutines with Adaptive off: there is no
// central-first step, so every operation enters the collision layers
// and the benchmark prices the protocol itself. It must be called inside
// the sub-benchmark, where -cpu has set GOMAXPROCS.
func funnelOpts(always bool) []pq.Option {
	if !always {
		return nil
	}
	prm := funnel.DefaultParams(runtime.GOMAXPROCS(0))
	prm.Adaptive = false
	return []pq.Option{pq.WithFunnelParams(prm)}
}

// BenchmarkNativeCounter compares the funnel counter against a plain
// atomic under contention — the native analogue of Figure 5's question.
// The "always" variants funnel every operation.
func BenchmarkNativeCounter(b *testing.B) {
	for _, bc := range []struct {
		name            string
		bounded, always bool
	}{
		{"funnel-bounded", true, false},
		{"funnel-unbounded", false, false},
		{"funnel-bounded/always", true, true},
		{"funnel-unbounded/always", false, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			initial := int64(0)
			if bc.bounded {
				initial = 1 << 40
			}
			c := pq.NewCounter(initial, bc.bounded, 0, funnelOpts(bc.always)...)
			b.RunParallel(func(p *testing.PB) {
				i := 0
				for p.Next() {
					if i%2 == 0 {
						c.FaI()
					} else {
						c.FaD()
					}
					i++
				}
			})
		})
	}
}

// BenchmarkNativeStack exercises the funnel stack against a mutex slice
// stack baseline. The "always" variant funnels every operation.
func BenchmarkNativeStack(b *testing.B) {
	for _, bc := range []struct {
		name   string
		always bool
	}{
		{"funnel", false},
		{"funnel/always", true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := pq.NewStack[int](funnelOpts(bc.always)...)
			b.RunParallel(func(p *testing.PB) {
				i := 0
				for p.Next() {
					if i%2 == 0 {
						s.Push(i)
					} else {
						s.Pop()
					}
					i++
				}
			})
		})
	}
	b.Run("mutex", func(b *testing.B) {
		var (
			mu    sync.Mutex
			items []int
		)
		b.RunParallel(func(p *testing.PB) {
			i := 0
			for p.Next() {
				mu.Lock()
				if i%2 == 0 {
					items = append(items, i)
				} else if n := len(items); n > 0 {
					items = items[:n-1]
				}
				mu.Unlock()
				i++
			}
		})
	})
}
