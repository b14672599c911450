package simpq

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"pq/internal/core"
	"pq/internal/sim"
)

// Value encoding used by queue tests: priority in the high bits so drain
// order checks can recover it.
func encVal(pri, proc, seq int) uint64 {
	return uint64(pri)<<40 | uint64(proc)<<20 | uint64(seq) | 1<<55
}

func decPri(v uint64) int { return int(v>>40) & 0x7fff }

// strictOrderOnDrain reports whether the algorithm guarantees that a
// sequential drain at quiescence returns priorities in non-decreasing
// order even after a concurrent mixed phase. The skip list's delete-bin
// intentionally serves slightly stale priorities (the paper's design), and
// our Hunt variant can leave a transient local inversion for an inserter
// to repair, so those two get multiset-only checks under concurrency.
func strictOrderOnDrain(alg Algorithm) bool {
	return alg != AlgSkipList && alg != AlgHuntEtAl
}

func TestQueueSequentialFillThenDrain(t *testing.T) {
	for _, alg := range core.Algorithms {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			const npri = 16
			const items = 120
			var q Queue
			var drained []uint64
			runOn(t, 1,
				func(m *sim.Machine) { q = Build(alg, m, npri, items+1) },
				func(p *sim.Proc) {
					for i := 0; i < items; i++ {
						q.Insert(p, p.Rand(npri), encVal(0, 0, i))
					}
					for {
						v, ok := q.DeleteMin(p)
						if !ok {
							break
						}
						drained = append(drained, v)
					}
					if _, ok := q.DeleteMin(p); ok {
						t.Error("DeleteMin succeeded on drained queue")
					}
				})
			if len(drained) != items {
				t.Fatalf("drained %d items, want %d", len(drained), items)
			}
			seen := map[uint64]bool{}
			for _, v := range drained {
				if seen[v] {
					t.Fatalf("duplicate value %#x", v)
				}
				seen[v] = true
			}
		})
	}
}

func TestQueueSequentialPriorityOrder(t *testing.T) {
	// Insert with the priority encoded in the value; drain must return
	// non-decreasing priorities for every algorithm when run sequentially
	// with all inserts before all deletes.
	for _, alg := range core.Algorithms {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			const npri = 32
			const items = 150
			var q Queue
			var pris []int
			runOn(t, 1,
				func(m *sim.Machine) { q = Build(alg, m, npri, items+1) },
				func(p *sim.Proc) {
					for i := 0; i < items; i++ {
						pri := p.Rand(npri)
						q.Insert(p, pri, encVal(pri, 0, i))
					}
					for {
						v, ok := q.DeleteMin(p)
						if !ok {
							break
						}
						pris = append(pris, decPri(v))
					}
				})
			if len(pris) != items {
				t.Fatalf("drained %d, want %d", len(pris), items)
			}
			if !sort.IntsAreSorted(pris) {
				t.Fatalf("drain order not sorted: %v", pris)
			}
		})
	}
}

func TestQueueConcurrentMixedThenDrain(t *testing.T) {
	for _, alg := range core.Algorithms {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			const (
				procs   = 16
				perProc = 20
				npri    = 8
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

			// Multiset check: inserted == deleted + drained, exactly.
			remaining := map[uint64]int{}
			nIns := 0
			for _, vs := range inserted {
				for _, v := range vs {
					remaining[v]++
					nIns++
				}
			}
			consume := func(v uint64, where string) {
				if remaining[v] == 0 {
					t.Fatalf("%s returned value %#x that is not outstanding", where, v)
				}
				remaining[v]--
			}
			for _, vs := range deleted {
				for _, v := range vs {
					consume(v, "concurrent delete")
				}
			}
			for _, v := range drained {
				consume(v, "drain")
			}
			for v, n := range remaining {
				if n != 0 {
					t.Errorf("value %#x lost (inserted %d times more than removed)", v, n)
				}
			}
			if t.Failed() {
				t.Fatalf("multiset mismatch: inserted=%d", nIns)
			}

			if strictOrderOnDrain(alg) {
				pris := make([]int, len(drained))
				for i, v := range drained {
					pris[i] = decPri(v)
				}
				if !sort.IntsAreSorted(pris) {
					t.Fatalf("post-quiescence drain order not sorted: %v", pris)
				}
			}
		})
	}
}

func TestQueueDeleteOnEmpty(t *testing.T) {
	for _, alg := range core.Algorithms {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			var q Queue
			runOn(t, 4,
				func(m *sim.Machine) { q = Build(alg, m, 8, 64) },
				func(p *sim.Proc) {
					for i := 0; i < 5; i++ {
						if _, ok := q.DeleteMin(p); ok {
							t.Error("DeleteMin on never-filled queue succeeded")
						}
					}
				})
		})
	}
}

func TestQueueSinglePriority(t *testing.T) {
	// Degenerate range N=1 must still work (it exercises tree queues with
	// a single leaf).
	for _, alg := range core.Algorithms {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			var q Queue
			var bar *barrier
			var got int
			runOn(t, 4,
				func(m *sim.Machine) {
					q = Build(alg, m, 1, 64)
					bar = newBarrier(m)
				},
				func(p *sim.Proc) {
					q.Insert(p, 0, encVal(0, p.ID(), 0))
					// Quiescently consistent queues only promise that items
					// inserted before a quiescent point are visible after it.
					bar.wait(p, 1)
					if _, ok := q.DeleteMin(p); ok {
						got++
					}
				})
			if got != 4 {
				t.Fatalf("completed %d delete-mins, want 4", got)
			}
		})
	}
}

func TestQueueInterleavedPriorityRespect(t *testing.T) {
	// Single processor interleaving inserts and deletes: every delete must
	// return the current minimum for the strictly-ordered algorithms.
	for _, alg := range core.Algorithms {
		if !strictOrderOnDrain(alg) {
			continue
		}
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			const npri = 16
			var q Queue
			runOn(t, 1,
				func(m *sim.Machine) { q = Build(alg, m, npri, 256) },
				func(p *sim.Proc) {
					live := map[int]int{} // pri -> count
					for i := 0; i < 200; i++ {
						if p.Rand(3) != 0 {
							pri := p.Rand(npri)
							q.Insert(p, pri, encVal(pri, 0, i))
							live[pri]++
						} else {
							v, ok := q.DeleteMin(p)
							min := -1
							for pr := 0; pr < npri; pr++ {
								if live[pr] > 0 {
									min = pr
									break
								}
							}
							if min == -1 {
								if ok {
									t.Fatalf("delete on empty returned %#x", v)
								}
								continue
							}
							if !ok {
								t.Fatalf("delete failed with %d live items", len(live))
							}
							if got := decPri(v); got != min {
								t.Fatalf("deleted priority %d, want min %d", got, min)
							}
							live[min]--
						}
					}
				})
		})
	}
}

func TestQueueDeterministicLatency(t *testing.T) {
	// Same configuration twice must produce bit-identical results; this is
	// the property that makes the reproduction immune to host scheduling.
	run := func() Result {
		r, err := RunWorkload(AlgFunnelTree, 8, 16, WorkloadConfig{
			OpsPerProc: 20, LocalWork: 30, InsertFraction: 0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("nondeterministic workload results:\n%+v\n%+v", a, b)
	}
}

// TestSimulatedQueuesCheckPriorities checks that the simulated bin-array,
// counter-tree and MultiQueue queues refuse an out-of-range priority with
// core's panic, single and batched, before touching the queue. A
// 5-priority tree has eight leaves, so priority 5 names a real but
// surplus leaf; the MultiQueue has no slot for it at all.
func TestSimulatedQueuesCheckPriorities(t *testing.T) {
	const npri = 5
	want := fmt.Sprintf("core: priority %d out of range [0,%d)", npri, npri)
	for _, alg := range []Algorithm{AlgSimpleLinear, AlgSimpleTree, AlgFunnelTree, AlgMultiQueue} {
		for _, batch := range []bool{false, true} {
			m, err := sim.New(sim.DefaultConfig(1))
			if err != nil {
				t.Fatal(err)
			}
			q := Build(alg, m, npri, 64)
			var got any
			func() {
				defer func() { got = recover() }()
				m.Run(func(p *sim.Proc) {
					if batch {
						InsertBatch(p, q, []BatchItem{{Pri: 0, Val: 1}, {Pri: npri, Val: 2}})
					} else {
						q.Insert(p, npri, 2)
					}
				})
			}()
			if got != want {
				t.Errorf("%s batch=%v: insert at priority %d panicked with %v, want %q", alg, batch, npri, got, want)
			}
		}
	}
}
