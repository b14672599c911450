package simpq

import (
	"testing"

	"pq/internal/order"
	"pq/internal/sim"
)

// TestMultiQueueSequential drives the simulated MultiQueue on one
// processor: conservation is exact, emptiness is exact (the full scan),
// and the rank accounting must match a naive host-side model.
func TestMultiQueueSequential(t *testing.T) {
	const npri = 8
	runOnOne(t,
		func(m *sim.Machine) Queue { return NewMultiQueue(m, npri, 256, 2) },
		func(p *sim.Proc, q Queue) {
			if _, ok := q.DeleteMin(p); ok {
				t.Error("empty queue returned an item")
			}
			seen := map[uint64]bool{}
			n := 0
			for i := 0; i < 60; i++ {
				pri := (i * 7) % npri
				q.Insert(p, pri, encVal(pri, 0, i))
				n++
				if i%3 == 2 {
					v, ok := q.DeleteMin(p)
					if !ok {
						t.Fatalf("op %d: queue claims empty with %d items", i, n)
					}
					if seen[v] {
						t.Fatalf("value %#x returned twice", v)
					}
					seen[v] = true
					n--
				}
			}
			for ; n > 0; n-- {
				v, ok := q.DeleteMin(p)
				if !ok {
					t.Fatalf("drain: queue claims empty with %d items left", n)
				}
				if seen[v] {
					t.Fatalf("value %#x returned twice", v)
				}
				seen[v] = true
			}
			if _, ok := q.DeleteMin(p); ok {
				t.Error("drained queue returned an item")
			}
		})
}

// TestMultiQueueRelaxedOrderOnSimulator runs the simulated MultiQueue
// concurrently with exact cycle timestamps: the relaxed checker must
// pass with a generous rank budget, the strict safety rules must hold
// unconditionally, and the internals counters must reflect the run.
func TestMultiQueueRelaxedOrderOnSimulator(t *testing.T) {
	const (
		procs   = 16
		perProc = 30
		npri    = 8
	)
	for _, c := range []int{2, 4} {
		var q *MultiQueue
		histories := make([][]order.Op, procs)
		runOn(t, procs,
			func(m *sim.Machine) { q = NewMultiQueue(m, npri, procs*perProc+1, c) },
			func(p *sim.Proc) {
				id := p.ID()
				for i := 0; i < perProc; i++ {
					p.LocalWork(int64(p.Rand(60)))
					if p.Rand(2) == 0 || i < 2 {
						pri := p.Rand(npri)
						v := encVal(pri, id, i)
						start := p.Now()
						q.Insert(p, pri, v)
						histories[id] = append(histories[id], order.Op{
							Kind: order.Insert, Pri: pri, Val: v, OK: true,
							Start: start, End: p.Now(),
						})
					} else {
						start := p.Now()
						v, ok := q.DeleteMin(p)
						op := order.Op{Kind: order.DeleteMin, OK: ok, Start: start, End: p.Now()}
						if ok {
							op.Pri, op.Val = decPri(v), v
						}
						histories[id] = append(histories[id], op)
					}
				}
			})
		var all []order.Op
		for _, h := range histories {
			all = append(all, h...)
		}
		budget := 64 * q.Heaps.Len() // well above the whp rank bound
		if vs := order.CheckRelaxed(all, order.RelaxedBound{MaxRank: budget}); len(vs) != 0 {
			t.Fatalf("c=%d: relaxed checker: %d violations, first: %v", c, len(vs), vs[0])
		}
		m := q.Metrics()
		if m["multiqueue.queue_picks"] == 0 {
			t.Fatalf("c=%d: no queue picks recorded: %v", c, m)
		}
		if m["multiqueue.rank_pops"] == 0 {
			t.Fatalf("c=%d: no rank accounting: %v", c, m)
		}
	}
}

// TestMultiQueueBatchOnSimulator checks the batch fast paths and that a
// full drain recovers every item exactly once.
func TestMultiQueueBatchOnSimulator(t *testing.T) {
	const npri = 4
	runOnOne(t,
		func(m *sim.Machine) Queue { return NewMultiQueue(m, npri, 128, 2) },
		func(p *sim.Proc, q Queue) {
			bq := q.(BatchQueue)
			var items []BatchItem
			for i := 0; i < 20; i++ {
				pri := i % npri
				items = append(items, BatchItem{Pri: pri, Val: encVal(pri, 1, i)})
			}
			bq.InsertBatch(p, items)
			if _, ok := q.DeleteMin(p); !ok {
				t.Fatal("DeleteMin failed on a full queue")
			}
			got := bq.DeleteMinBatch(p, 64)
			if len(got) != 19 {
				t.Fatalf("drain returned %d items, want 19", len(got))
			}
			seen := map[uint64]bool{}
			for _, it := range got {
				if it.Pri != decPri(it.Val) {
					t.Fatalf("item %+v has wrong priority", it)
				}
				if seen[it.Val] {
					t.Fatalf("value %#x returned twice", it.Val)
				}
				seen[it.Val] = true
			}
			if got := bq.DeleteMinBatch(p, 4); len(got) != 0 {
				t.Fatalf("empty queue batch returned %d items", len(got))
			}
		})
}

// TestMultiQueueWorkload smoke-tests the full workload harness path
// (Build, the registry check, metrics plumbing) for the relaxed algorithm.
func TestMultiQueueWorkload(t *testing.T) {
	res, err := RunWorkload(AlgMultiQueue, 8, 16, WorkloadConfig{
		OpsPerProc: 50, InsertFraction: 0.5, Prefill: 32, LocalWork: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserts == 0 || res.Deletes == 0 {
		t.Fatalf("workload did nothing: %+v", res)
	}
	if res.Internals["multiqueue.queue_picks"] == 0 {
		t.Fatalf("internals missing queue picks: %v", res.Internals)
	}
	if _, ok := res.Internals["multiqueue.rank_p99"]; !ok {
		t.Fatalf("internals missing rank distribution: %v", res.Internals)
	}
}
