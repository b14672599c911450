package core

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"pq/internal/order"
	"pq/internal/refpq"
)

// asBatch asserts the native batch interface every built queue promises.
func asBatch(t *testing.T, q Queue[uint64]) BatchQueue[uint64] {
	t.Helper()
	bq, ok := q.(BatchQueue[uint64])
	if !ok {
		t.Fatalf("%T does not implement BatchQueue", q)
	}
	return bq
}

// TestDifferentialBatchSequential quick-checks the exactly matching queues
// against the reference oracle on random mixed single/batch tapes,
// value-for-value: run sequentially, InsertBatch must behave like the
// items applied in order and DeleteMinBatch like k sequential deletes.
func TestDifferentialBatchSequential(t *testing.T) {
	for _, alg := range exactSequentialMatch {
		alg := alg
		for _, fifo := range []bool{false, true} {
			fifo := fifo
			name := string(alg)
			if fifo {
				name += "/fifo"
			}
			t.Run(name, func(t *testing.T) {
				f := func(seed int64, nPriRaw uint8) bool {
					npri := int(nPriRaw%16) + 1
					q, err := New[uint64](alg, Config{Priorities: npri, Concurrency: 2, FIFOBins: fifo})
					if err != nil {
						t.Fatal(err)
					}
					bq := asBatch(t, q)
					var ref *refpq.Queue
					if fifo {
						ref = refpq.NewFIFO(npri)
					} else {
						ref = refpq.New(npri)
					}
					rng := rand.New(rand.NewSource(seed))
					seq := 0
					mkVal := func(pri int) uint64 {
						v := uint64(seq)<<8 | uint64(pri)
						seq++
						return v
					}
					for i := 0; i < 200; i++ {
						switch rng.Intn(4) {
						case 0:
							pri := rng.Intn(npri)
							v := mkVal(pri)
							q.Insert(pri, v)
							ref.Insert(pri, v)
						case 1:
							n := rng.Intn(8) + 1
							items := make([]Item[uint64], n)
							refItems := make([]refpq.Item, n)
							for j := range items {
								pri := rng.Intn(npri)
								v := mkVal(pri)
								items[j] = Item[uint64]{Pri: pri, Val: v}
								refItems[j] = refpq.Item{Pri: pri, Val: v}
							}
							bq.InsertBatch(items)
							ref.InsertBatch(refItems)
						case 2:
							gv, gok := q.DeleteMin()
							wv, wok := ref.DeleteMin()
							if gok != wok || (gok && gv != wv) {
								t.Logf("op %d: got (%d,%v), want (%d,%v)", i, gv, gok, wv, wok)
								return false
							}
						case 3:
							k := rng.Intn(8) + 1
							got := bq.DeleteMinBatch(k)
							want := ref.DeleteMinBatch(k)
							if len(got) != len(want) {
								t.Logf("op %d: batch len %d, want %d", i, len(got), len(want))
								return false
							}
							for j := range got {
								if got[j].Val != want[j].Val || got[j].Pri != want[j].Pri {
									t.Logf("op %d[%d]: got %+v, want %+v", i, j, got[j], want[j])
									return false
								}
							}
						}
					}
					// Drain with one big batch and compare the tails.
					got := bq.DeleteMinBatch(ref.Len() + 1)
					want := ref.DeleteMinBatch(ref.Len() + 1)
					if len(got) != len(want) {
						t.Logf("drain: %d items, want %d", len(got), len(want))
						return false
					}
					for j := range got {
						if got[j] != (Item[uint64](want[j])) {
							t.Logf("drain[%d]: got %+v, want %+v", j, got[j], want[j])
							return false
						}
					}
					return true
				}
				if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestDifferentialBatchHeaps covers the remaining algorithms: priorities
// must match the oracle exactly for the heaps (sequentially they always
// pop the true minimum), while the skip list — whose delete bin serves
// one stale priority level — is held to ok-equivalence plus conservation.
func TestDifferentialBatchHeaps(t *testing.T) {
	for _, alg := range []Algorithm{SingleLock, HuntEtAl, SkipList} {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			f := func(seed int64, nPriRaw uint8) bool {
				npri := int(nPriRaw%16) + 1
				q, err := New[uint64](alg, Config{Priorities: npri, Concurrency: 2})
				if err != nil {
					t.Fatal(err)
				}
				bq := asBatch(t, q)
				ref := refpq.New(npri)
				rng := rand.New(rand.NewSource(seed))
				outstanding := map[uint64]bool{}
				seq := 0
				mkVal := func(pri int) uint64 {
					v := uint64(seq)<<8 | uint64(pri)
					seq++
					outstanding[v] = true
					return v
				}
				take := func(it Item[uint64]) bool {
					if !outstanding[it.Val] {
						t.Logf("returned %+v which is not outstanding", it)
						return false
					}
					delete(outstanding, it.Val)
					if it.Pri != int(it.Val&0xff) {
						t.Logf("item %+v reports wrong priority", it)
						return false
					}
					return true
				}
				for i := 0; i < 200; i++ {
					switch rng.Intn(4) {
					case 0:
						pri := rng.Intn(npri)
						v := mkVal(pri)
						q.Insert(pri, v)
						ref.Insert(pri, v)
					case 1:
						n := rng.Intn(8) + 1
						items := make([]Item[uint64], n)
						refItems := make([]refpq.Item, n)
						for j := range items {
							pri := rng.Intn(npri)
							v := mkVal(pri)
							items[j] = Item[uint64]{Pri: pri, Val: v}
							refItems[j] = refpq.Item{Pri: pri, Val: v}
						}
						bq.InsertBatch(items)
						ref.InsertBatch(refItems)
					case 2:
						gv, gok := q.DeleteMin()
						wv, wok := ref.DeleteMin()
						if gok != wok {
							t.Logf("op %d: ok mismatch %v vs %v", i, gok, wok)
							return false
						}
						if gok {
							if !take(Item[uint64]{Pri: int(gv & 0xff), Val: gv}) {
								return false
							}
							if alg != SkipList && gv&0xff != wv&0xff {
								t.Logf("op %d: pri %d, want %d", i, gv&0xff, wv&0xff)
								return false
							}
						}
					case 3:
						k := rng.Intn(8) + 1
						got := bq.DeleteMinBatch(k)
						want := ref.DeleteMinBatch(k)
						if len(got) != len(want) {
							t.Logf("op %d: batch len %d, want %d", i, len(got), len(want))
							return false
						}
						for j := range got {
							if !take(got[j]) {
								return false
							}
							if alg != SkipList && got[j].Pri != want[j].Pri {
								t.Logf("op %d[%d]: pri %d, want %d", i, j, got[j].Pri, want[j].Pri)
								return false
							}
						}
					}
				}
				// Conservation: both sides must hold the same tail.
				got := bq.DeleteMinBatch(ref.Len() + 1)
				if len(got) != ref.Len() {
					t.Logf("drain: %d items, want %d", len(got), ref.Len())
					return false
				}
				for _, it := range got {
					if !take(it) {
						return false
					}
				}
				return len(outstanding) == 0
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// checkBatchHistory judges one algorithm's concurrent history with the
// strongest sound rule set for its consistency class: the strictly
// linearizable queues get the full checker including the batch rules; the
// Hunt heap (transient local inversions mid-race) and the skip list (its
// delete bin serves a stale priority level) keep uniqueness, precedence
// and emptiness but not the priority-sensitive rules; the quiescently
// consistent funnel family is checked at busy-period granularity.
func checkBatchHistory(t *testing.T, alg Algorithm, history []order.Op) {
	t.Helper()
	var vs []order.Violation
	switch alg {
	case SingleLock, SimpleLinear:
		vs = order.Check(history)
	case HuntEtAl, SkipList:
		for _, v := range order.Check(history) {
			if v.Rule != "priority" && v.Rule != "batch-order" {
				vs = append(vs, v)
			}
		}
	default:
		vs = order.CheckQuiescent(history)
	}
	if len(vs) != 0 {
		for _, v := range vs[:min(len(vs), 5)] {
			t.Error(v)
		}
		t.Fatalf("%s: %d history violations", alg, len(vs))
	}
}

// TestBatchStressConcurrent is the differential batch-oracle stress
// harness: every algorithm runs goroutines interleaving randomized
// single, batch and mixed operations; the recorded history (timestamped
// by one atomic ticket counter, so intervals are real-time consistent) is
// checked by the interval-order checker under each algorithm's rules, and
// every inserted value must come out exactly once.
func TestBatchStressConcurrent(t *testing.T) {
	goroutines, opsPerG := 8, 250
	if testing.Short() {
		goroutines, opsPerG = 4, 120
	}
	const npri = 8
	for _, alg := range Algorithms {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			q := build(t, alg, npri)
			bq := asBatch(t, q)
			var tick atomic.Int64
			var batchID atomic.Uint64
			histories := make([][]order.Op, goroutines)
			inserted := make([]map[uint64]bool, goroutines)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				g := g
				inserted[g] = map[uint64]bool{}
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g)*7919 + 1))
					h := &histories[g]
					seq := 0
					for i := 0; i < opsPerG; i++ {
						switch rng.Intn(4) {
						case 0:
							pri := rng.Intn(npri)
							v := enc(pri, g, seq)
							seq++
							inserted[g][v] = true
							start := tick.Add(1)
							q.Insert(pri, v)
							*h = append(*h, order.Op{
								Kind: order.Insert, Pri: pri, Val: v, OK: true,
								Start: start, End: tick.Add(1),
							})
						case 1:
							n := rng.Intn(7) + 2
							items := make([]Item[uint64], n)
							for j := range items {
								pri := rng.Intn(npri)
								items[j] = Item[uint64]{Pri: pri, Val: enc(pri, g, seq)}
								seq++
								inserted[g][items[j].Val] = true
							}
							id := batchID.Add(1)
							start := tick.Add(1)
							bq.InsertBatch(items)
							end := tick.Add(1)
							for _, it := range items {
								*h = append(*h, order.Op{
									Kind: order.Insert, Pri: it.Pri, Val: it.Val, OK: true,
									Start: start, End: end, Batch: id,
								})
							}
						case 2:
							start := tick.Add(1)
							v, ok := q.DeleteMin()
							op := order.Op{Kind: order.DeleteMin, OK: ok, Start: start, End: tick.Add(1)}
							if ok {
								op.Pri, op.Val = dec(v), v
							}
							*h = append(*h, op)
						case 3:
							k := rng.Intn(7) + 2
							id := batchID.Add(1)
							start := tick.Add(1)
							got := bq.DeleteMinBatch(k)
							end := tick.Add(1)
							if len(got) == 0 {
								*h = append(*h, order.Op{
									Kind: order.DeleteMin, OK: false,
									Start: start, End: end, Batch: id,
								})
							}
							for _, it := range got {
								*h = append(*h, order.Op{
									Kind: order.DeleteMin, Pri: it.Pri, Val: it.Val, OK: true,
									Start: start, End: end, Batch: id,
								})
							}
						}
					}
				}()
			}
			wg.Wait()

			var all []order.Op
			for _, h := range histories {
				all = append(all, h...)
			}

			// Conservation: everything inserted comes out exactly once,
			// with the priority it went in under.
			remaining := map[uint64]bool{}
			for _, m := range inserted {
				for v := range m {
					remaining[v] = true
				}
			}
			consume := func(val uint64, pri int, where string) {
				if !remaining[val] {
					t.Fatalf("%s returned %#x which is not outstanding", where, val)
				}
				delete(remaining, val)
				if pri != dec(val) {
					t.Fatalf("%s returned %#x with priority %d, inserted at %d", where, val, pri, dec(val))
				}
			}
			for _, op := range all {
				if op.Kind == order.DeleteMin && op.OK {
					consume(op.Val, op.Pri, "concurrent delete")
				}
			}
			for {
				got := bq.DeleteMinBatch(16)
				if len(got) == 0 {
					break
				}
				for _, it := range got {
					consume(it.Val, it.Pri, "drain")
				}
			}
			if _, ok := q.DeleteMin(); ok {
				t.Fatal("DeleteMin succeeded after batch drain reported dry")
			}
			for v := range remaining {
				t.Fatalf("value %#x lost", v)
			}

			checkBatchHistory(t, alg, all)
		})
	}
}

// TestBatchEdgeCases pins the degenerate batch inputs for every
// algorithm: empty and nil inserts are no-ops, non-positive and oversized
// delete requests behave, and a whole-queue batch drains in priority
// order at quiescence.
func TestBatchEdgeCases(t *testing.T) {
	for _, alg := range Algorithms {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			q := build(t, alg, 4)
			bq := asBatch(t, q)
			bq.InsertBatch(nil)
			bq.InsertBatch([]Item[uint64]{})
			if got := bq.DeleteMinBatch(0); len(got) != 0 {
				t.Fatalf("DeleteMinBatch(0) = %v", got)
			}
			if got := bq.DeleteMinBatch(-3); len(got) != 0 {
				t.Fatalf("DeleteMinBatch(-3) = %v", got)
			}
			if got := bq.DeleteMinBatch(5); len(got) != 0 {
				t.Fatalf("DeleteMinBatch on empty queue = %v", got)
			}
			bq.InsertBatch([]Item[uint64]{{Pri: 3, Val: 30}, {Pri: 0, Val: 1}, {Pri: 2, Val: 20}, {Pri: 0, Val: 2}})
			got := bq.DeleteMinBatch(100)
			if len(got) != 4 {
				t.Fatalf("drained %d items, want 4", len(got))
			}
			for i := 1; i < len(got); i++ {
				if got[i].Pri < got[i-1].Pri {
					t.Fatalf("batch out of order: %v", got)
				}
			}
			// A half-inserted batch must not survive a bad priority.
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("InsertBatch with out-of-range priority did not panic")
					}
				}()
				bq.InsertBatch([]Item[uint64]{{Pri: 0, Val: 9}, {Pri: 99, Val: 10}})
			}()
			if got := bq.DeleteMinBatch(4); len(got) != 0 {
				t.Fatalf("half-inserted batch left items: %v", got)
			}
		})
	}
}

// TestGroupByPri checks the shared grouping: runs ascend by priority,
// every value lands in its priority's run in batch order (stability), and
// the empty, single-priority and all-distinct batches come out as such.
// One Batch groups every case, so each grouping also proves that reused
// scratch carries nothing over.
func TestGroupByPri(t *testing.T) {
	var b Batch[int]
	if runs := b.GroupByPri(nil); runs != nil {
		t.Fatalf("empty batch: %v", runs)
	}
	check := func(name string, items []Item[int], wantRuns int) {
		t.Helper()
		runs := b.GroupByPri(items)
		if len(runs) != wantRuns {
			t.Fatalf("%s: %d runs, want %d", name, len(runs), wantRuns)
		}
		var flat []int
		for i, run := range runs {
			if i > 0 && run.Pri <= runs[i-1].Pri {
				t.Fatalf("%s: run %d priority %d after %d", name, i, run.Pri, runs[i-1].Pri)
			}
			var want []int
			for _, it := range items {
				if it.Pri == run.Pri {
					want = append(want, it.Val)
				}
			}
			if !slices.Equal(run.Vals, want) {
				t.Fatalf("%s: run %d (pri %d) = %v, want %v in batch order", name, i, run.Pri, run.Vals, want)
			}
			if cap(run.Vals) != len(run.Vals) {
				t.Fatalf("%s: run %d has spare capacity %d", name, i, cap(run.Vals)-len(run.Vals))
			}
			flat = append(flat, run.Vals...)
		}
		if len(flat) != len(items) {
			t.Fatalf("%s: %d values grouped, want %d", name, len(flat), len(items))
		}
	}
	var single, distinct []Item[int]
	for i := 0; i < 9; i++ {
		single = append(single, Item[int]{Pri: 4, Val: i})
		distinct = append(distinct, Item[int]{Pri: 8 - i, Val: i})
	}
	check("single-priority", single, 1)
	check("all-distinct", distinct, 9)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		items := make([]Item[int], 1+rng.Intn(40))
		pris := map[int]bool{}
		for i := range items {
			items[i] = Item[int]{Pri: rng.Intn(8), Val: i}
			pris[items[i].Pri] = true
		}
		before := slices.Clone(items)
		check("random", items, len(pris))
		if !slices.Equal(items, before) {
			t.Fatal("GroupByPri modified its input")
		}
	}
}

// TestTreeIncrements checks the shared counter-tree batch increments
// against a brute-force walk of each item's leaf-to-root path: the same
// nodes with the same counts, in strictly descending heap index.
func TestTreeIncrements(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var b Batch[int]
	for _, npri := range []int{1, 2, 3, 4, 7, 16, 33, 64} {
		nleaves := CeilPow2(npri)
		for trial := 0; trial < 100; trial++ {
			items := make([]Item[int], rng.Intn(24))
			for i := range items {
				items[i] = Item[int]{Pri: rng.Intn(npri), Val: i}
			}
			want := map[int]int64{}
			for _, it := range items {
				for n := nleaves + it.Pri; n > 1; n /= 2 {
					if n%2 == 0 {
						want[n/2]++
					}
				}
			}
			got := b.TreeIncrements(nleaves, b.GroupByPri(items))
			if len(got) != len(want) {
				t.Fatalf("npri %d, batch %v: %d increments %v, want %d nodes %v", npri, items, len(got), got, len(want), want)
			}
			for i, inc := range got {
				if i > 0 && inc.Node >= got[i-1].Node {
					t.Fatalf("npri %d: node %d follows node %d, want strictly descending", npri, inc.Node, got[i-1].Node)
				}
				if want[inc.Node] != inc.N {
					t.Fatalf("npri %d: node %d rises by %d, the walk says %d", npri, inc.Node, inc.N, want[inc.Node])
				}
			}
		}
	}
}

// BenchmarkBatch reports each algorithm's time and allocations for one
// 16-item InsertBatch followed by one DeleteMinBatch(16), with the batch
// spread over 1, 4 or 16 priorities.
func BenchmarkBatch(b *testing.B) {
	for _, alg := range All() {
		for _, spread := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/pris=%d", alg, spread), func(b *testing.B) {
				q, err := New[uint64](alg, Config{Priorities: 16, Concurrency: 1})
				if err != nil {
					b.Fatal(err)
				}
				bq := q.(BatchQueue[uint64])
				items := make([]Item[uint64], 16)
				for i := range items {
					items[i] = Item[uint64]{Pri: (i * 5) % spread * (16 / spread), Val: uint64(i)}
				}
				b.ReportAllocs()
				for b.Loop() {
					bq.InsertBatch(items)
					if got := bq.DeleteMinBatch(len(items)); len(got) != len(items) {
						b.Fatalf("DeleteMinBatch returned %d of %d", len(got), len(items))
					}
				}
			})
		}
	}
}

// TestAppendDeleteMinBatchZeroAlloc: on the bin-array and counter-tree
// queues, lock bins or funnel stacks, and on the skip list, an
// InsertBatch and an AppendDeleteMinBatch into a recycled slice allocate
// nothing, the batch spread over many priorities or one.
func TestAppendDeleteMinBatchZeroAlloc(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("sync.Pool drops items at random under the race detector")
			}
		}
	}
	for _, alg := range []Algorithm{SimpleLinear, SimpleTree, LinearFunnels, FunnelTree, SkipList} {
		for _, spread := range []int{1, 16} {
			q, err := New[uint64](alg, Config{Priorities: 16, Concurrency: 1})
			if err != nil {
				t.Fatal(err)
			}
			bq := q.(BatchQueue[uint64])
			items := make([]Item[uint64], 32)
			for i := range items {
				items[i] = Item[uint64]{Pri: i % spread, Val: uint64(i)}
			}
			var dst []Item[uint64]
			allocs := testing.AllocsPerRun(100, func() {
				bq.InsertBatch(items)
				dst = bq.AppendDeleteMinBatch(dst[:0], len(items))
			})
			if len(dst) != len(items) {
				t.Fatalf("%s: took %d of %d", alg, len(dst), len(items))
			}
			if allocs != 0 {
				t.Errorf("%s, %d priorities: %.1f allocs per InsertBatch+AppendDeleteMinBatch, want 0", alg, spread, allocs)
			}
		}
	}
}
