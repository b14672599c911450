package simpq

import (
	"testing"

	"pq/internal/sim"
)

// TestQueueHighConcurrencyStress drives the four scalable queues at 64
// simulated processors with full multiset verification — a heavier
// interleaving than the 16-processor concurrent test.
func TestQueueHighConcurrencyStress(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy simulation")
	}
	algs := []Algorithm{AlgSimpleLinear, AlgSimpleTree, AlgLinearFunnels, AlgFunnelTree}
	for _, alg := range algs {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			const (
				procs   = 64
				perProc = 15
				npri    = 16
			)
			var (
				q   Queue
				bar *barrier
			)
			inserted := make([][]uint64, procs)
			deleted := make([][]uint64, procs)
			var drained []uint64
			runOn(t, procs,
				func(m *sim.Machine) {
					q = Build(alg, m, npri, procs*perProc+1)
					bar = newBarrier(m)
				},
				func(p *sim.Proc) {
					id := p.ID()
					for i := 0; i < perProc; i++ {
						if p.Rand(2) == 0 {
							pri := p.Rand(npri)
							v := encVal(pri, id, i)
							inserted[id] = append(inserted[id], v)
							q.Insert(p, pri, v)
						} else if v, ok := q.DeleteMin(p); ok {
							deleted[id] = append(deleted[id], v)
						}
					}
					bar.wait(p, 1)
					if id == 0 {
						for {
							v, ok := q.DeleteMin(p)
							if !ok {
								break
							}
							drained = append(drained, v)
						}
					}
				})
			remaining := map[uint64]int{}
			for _, vs := range inserted {
				for _, v := range vs {
					remaining[v]++
				}
			}
			take := func(v uint64) {
				if remaining[v] == 0 {
					t.Fatalf("returned %#x which is not outstanding", v)
				}
				remaining[v]--
			}
			for _, vs := range deleted {
				for _, v := range vs {
					take(v)
				}
			}
			for _, v := range drained {
				take(v)
			}
			for v, n := range remaining {
				if n != 0 {
					t.Fatalf("value %#x lost", v)
				}
			}
		})
	}
}

// TestCounterWorkloadSanity checks the Figure 5 driver end to end.
func TestCounterWorkloadSanity(t *testing.T) {
	for _, bounded := range []bool{false, true} {
		r, err := CounterWorkload(8, 10, 0.5, bounded, 20)
		if err != nil {
			t.Fatal(err)
		}
		if r.MeanAll <= 0 {
			t.Fatalf("bounded=%v: MeanAll=%f", bounded, r.MeanAll)
		}
	}
}

func TestWorkloadLatencySummaries(t *testing.T) {
	cfg := DefaultWorkload()
	cfg.OpsPerProc = 20
	cfg.KeepLatencies = true
	r, err := RunWorkload(AlgFunnelTree, 8, 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.AllSummary.Count != r.Inserts+r.Deletes {
		t.Fatalf("summary count %d, want %d", r.AllSummary.Count, r.Inserts+r.Deletes)
	}
	if r.AllSummary.P50 <= 0 || r.AllSummary.P99 < r.AllSummary.P50 {
		t.Fatalf("implausible summary: %+v", r.AllSummary)
	}
	if r.InsertSummary.Count != r.Inserts || r.DeleteSummary.Count != r.Deletes {
		t.Fatalf("split summaries wrong: %+v %+v", r.InsertSummary, r.DeleteSummary)
	}
	if diff := r.AllSummary.Mean - r.MeanAll; diff > 0.01 || diff < -0.01 {
		t.Fatalf("mean mismatch: %f vs %f", r.AllSummary.Mean, r.MeanAll)
	}
}
