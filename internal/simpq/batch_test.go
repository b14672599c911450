package simpq

import (
	"testing"

	"pq/internal/core"
	"pq/internal/sim"
)

// runOnOne drives a single-processor program on a fresh machine — enough
// to exercise batch plumbing deterministically without interleaving.
func runOnOne(t *testing.T, build func(m *sim.Machine) Queue, prog func(p *sim.Proc, q Queue)) {
	t.Helper()
	m, err := sim.New(sim.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	q := build(m)
	if _, err := m.Run(func(p *sim.Proc) { prog(p, q) }); err != nil {
		t.Fatal(err)
	}
}

// TestBatchSequentialSemantics checks, on one processor, that a batch
// insert followed by a batch delete behaves exactly like the equivalent
// single operations on every algorithm: all items come back, delete
// order is nondecreasing in priority, and a further delete fails.
func TestBatchSequentialSemantics(t *testing.T) {
	items := []BatchItem{
		{Pri: 5, Val: 50}, {Pri: 1, Val: 10}, {Pri: 3, Val: 30},
		{Pri: 1, Val: 11}, {Pri: 7, Val: 70}, {Pri: 0, Val: 1},
	}
	for _, alg := range core.Algorithms {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			runOnOne(t,
				func(m *sim.Machine) Queue { return Build(alg, m, 8, 64) },
				func(p *sim.Proc, q Queue) {
					InsertBatch(p, q, items)
					out := DeleteMinBatch(p, q, len(items)+3)
					if len(out) != len(items) {
						t.Errorf("%s: got %d items back, want %d", alg, len(out), len(items))
						return
					}
					seen := map[uint64]bool{}
					for _, it := range out {
						seen[it.Val] = true
					}
					for _, it := range items {
						if !seen[it.Val] {
							t.Errorf("%s: item %d lost", alg, it.Val)
						}
					}
					// Native batches report true priorities in delivery
					// order; the fallback path reports -1.
					if _, native := q.(BatchQueue); native {
						for i := 1; i < len(out); i++ {
							if out[i].Pri < out[i-1].Pri {
								t.Errorf("%s: delivery out of order: %v", alg, out)
								break
							}
						}
					}
					if _, ok := q.DeleteMin(p); ok {
						t.Errorf("%s: queue not empty after full batch drain", alg)
					}
				})
		})
	}
}

// TestBatchWorkloadConservation runs the standard benchmark at batch
// size 4 on every algorithm and checks the books: element counts scale
// with the batch size, and successful deletes never exceed inserts.
func TestBatchWorkloadConservation(t *testing.T) {
	cfg := DefaultWorkload()
	cfg.OpsPerProc = 20
	cfg.Batch = 4
	const procs = 8
	for _, alg := range core.Algorithms {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			r, err := RunWorkload(alg, procs, 8, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := r.Inserts + r.Deletes; got != procs*cfg.OpsPerProc*cfg.Batch {
				t.Fatalf("element ops = %d, want %d", got, procs*cfg.OpsPerProc*cfg.Batch)
			}
			if succ := r.Deletes - r.FailedDeletes; succ > r.Inserts {
				t.Fatalf("delivered %d items but only %d were inserted", succ, r.Inserts)
			}
		})
	}
}

// TestBatchWorkloadUsesNativePaths confirms the workload actually
// reaches the native fast paths: at batch size >1 the batch call
// counters of a native implementation must be nonzero.
func TestBatchWorkloadUsesNativePaths(t *testing.T) {
	cfg := DefaultWorkload()
	cfg.OpsPerProc = 20
	cfg.Batch = 8
	for _, alg := range []Algorithm{AlgSingleLock, AlgSimpleLinear, AlgSimpleTree, AlgLinearFunnels, AlgFunnelTree} {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			r, err := RunWorkload(alg, 8, 8, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if r.Internals == nil {
				t.Fatal("no internals metrics")
			}
			if r.Internals["batch_inserts"]+r.Internals["batch_deletes"] == 0 {
				t.Fatalf("native batch paths unused: %v", r.Internals)
			}
		})
	}
}

// TestBatchValidate rejects bad batch knobs.
func TestBatchValidate(t *testing.T) {
	cfg := DefaultWorkload()
	cfg.Batch = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative Batch accepted")
	}
	cfg.Batch = 2048
	if err := cfg.Validate(); err == nil {
		t.Fatal("oversized Batch accepted")
	}
}

// TestFunnelCounterMultiUnit drives multi-unit AddN/BSubN through a
// bounded funnel counter concurrently with unit operations on many
// simulated processors: the value must respect the bound and the books
// must balance at quiescence.
func TestFunnelCounterMultiUnit(t *testing.T) {
	const procs = 16
	m, err := sim.New(sim.DefaultConfig(procs))
	if err != nil {
		t.Fatal(err)
	}
	c := NewFunnelCounter(m, DefaultFunnelParams(procs), true, 0)
	added := make([]int64, procs)
	taken := make([]int64, procs)
	if _, err := m.Run(func(p *sim.Proc) {
		id := p.ID()
		for i := 0; i < 40; i++ {
			n := int64(i%4 + 1)
			if (i+id)%2 == 0 {
				c.AddN(p, n)
				added[id] += n
			} else {
				prev := int64(c.BSubN(p, n))
				if prev < 0 {
					t.Errorf("BSubN observed %d below bound", prev)
				}
				if prev < n {
					taken[id] += prev
				} else {
					taken[id] += n
				}
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	var totalAdded, totalTaken int64
	for i := 0; i < procs; i++ {
		totalAdded += added[i]
		totalTaken += taken[i]
	}
	// Value snapshot after Run: read from the machine's memory directly.
	got := int64(m.Word(c.main))
	if got < 0 {
		t.Fatalf("final value %d below bound", got)
	}
	if want := totalAdded - totalTaken; got != want {
		t.Fatalf("final value %d, want added(%d) - taken(%d) = %d", got, totalAdded, totalTaken, want)
	}
}
