package core

import (
	"sort"
	"sync"
	"testing"
	"time"

	"pq/internal/order"
)

func cfg(npri int) Config { return Config{Priorities: npri, Concurrency: 8} }

func build(t *testing.T, alg Algorithm, npri int) Queue[uint64] {
	t.Helper()
	q, err := New[uint64](alg, cfg(npri))
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// Value encoding: priority in high bits for order checks.
func enc(pri, g, i int) uint64 { return uint64(pri)<<40 | uint64(g)<<20 | uint64(i) | 1<<55 }
func dec(v uint64) int         { return int(v>>40) & 0x7fff }

// strictDrainOrder mirrors the paper's consistency expectations: the skip
// list serves slightly stale priorities through its delete bin, and the
// Hunt variant can briefly leave a local inversion mid-race.
func strictDrainOrder(alg Algorithm) bool {
	return alg != SkipList && alg != HuntEtAl
}

func TestNewValidation(t *testing.T) {
	if _, err := New[int](SimpleLinear, Config{Priorities: 0}); err == nil {
		t.Error("Priorities=0 accepted")
	}
	if _, err := New[int]("bogus", Config{Priorities: 4}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestInsertPanicsOutOfRange(t *testing.T) {
	for _, alg := range Algorithms {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			q := build(t, alg, 4)
			for _, pri := range []int{-1, 4, 100} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("Insert(%d) did not panic", pri)
						}
					}()
					q.Insert(pri, 1)
				}()
			}
		})
	}
}

func TestSequentialFillDrain(t *testing.T) {
	for _, alg := range Algorithms {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			const npri = 16
			const items = 500
			q := build(t, alg, npri)
			for i := 0; i < items; i++ {
				pri := i * 7 % npri
				q.Insert(pri, enc(pri, 0, i))
			}
			var pris []int
			for {
				v, ok := q.DeleteMin()
				if !ok {
					break
				}
				pris = append(pris, dec(v))
			}
			if len(pris) != items {
				t.Fatalf("drained %d, want %d", len(pris), items)
			}
			if !sort.IntsAreSorted(pris) {
				t.Fatalf("drain order not sorted")
			}
			if _, ok := q.DeleteMin(); ok {
				t.Fatal("DeleteMin succeeded on drained queue")
			}
		})
	}
}

func TestSequentialInterleavedMinRespect(t *testing.T) {
	for _, alg := range Algorithms {
		if !strictDrainOrder(alg) {
			continue
		}
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			const npri = 8
			q := build(t, alg, npri)
			live := map[int]int{}
			for i := 0; i < 400; i++ {
				if i%3 != 2 {
					pri := (i * 5) % npri
					q.Insert(pri, enc(pri, 0, i))
					live[pri]++
				} else {
					min := -1
					for p := 0; p < npri; p++ {
						if live[p] > 0 {
							min = p
							break
						}
					}
					v, ok := q.DeleteMin()
					if min == -1 {
						if ok {
							t.Fatalf("delete on empty returned %#x", v)
						}
						continue
					}
					if !ok {
						t.Fatal("delete failed with live items")
					}
					if got := dec(v); got != min {
						t.Fatalf("deleted pri %d, want %d", got, min)
					}
					live[min]--
				}
			}
		})
	}
}

func TestConcurrentMixedThenDrain(t *testing.T) {
	for _, alg := range Algorithms {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			const (
				goroutines = 8
				perG       = 300
				npri       = 8
			)
			q := build(t, alg, npri)
			inserted := make([][]uint64, goroutines)
			deleted := make([][]uint64, goroutines)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				g := g
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perG; i++ {
						if (i+g)%2 == 0 {
							pri := (i*13 + g) % npri
							v := enc(pri, g, i)
							inserted[g] = append(inserted[g], v)
							q.Insert(pri, v)
						} else if v, ok := q.DeleteMin(); ok {
							deleted[g] = append(deleted[g], v)
						}
					}
				}()
			}
			wg.Wait()

			var drained []uint64
			for {
				v, ok := q.DeleteMin()
				if !ok {
					break
				}
				drained = append(drained, v)
			}

			remaining := map[uint64]int{}
			for _, vs := range inserted {
				for _, v := range vs {
					remaining[v]++
				}
			}
			consume := func(v uint64, where string) {
				if remaining[v] == 0 {
					t.Fatalf("%s returned %#x which is not outstanding", where, v)
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
					t.Fatalf("value %#x lost (%d unaccounted)", v, n)
				}
			}
			if strictDrainOrder(alg) {
				pris := make([]int, len(drained))
				for i, v := range drained {
					pris[i] = dec(v)
				}
				if !sort.IntsAreSorted(pris) {
					t.Fatalf("post-quiescence drain not sorted: %v", pris)
				}
			}
		})
	}
}

func TestConcurrentProducersConsumers(t *testing.T) {
	// Dedicated producers and consumers; every produced item must be
	// consumed (consumers retry until the expected total arrives).
	for _, alg := range Algorithms {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			const (
				producers = 4
				consumers = 4
				perP      = 250
				npri      = 16
			)
			q := build(t, alg, npri)
			var wg sync.WaitGroup
			var mu sync.Mutex
			got := map[uint64]bool{}
			var consumed int

			for c := 0; c < consumers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						mu.Lock()
						if consumed == producers*perP {
							mu.Unlock()
							return
						}
						mu.Unlock()
						if v, ok := q.DeleteMin(); ok {
							mu.Lock()
							if got[v] {
								t.Errorf("duplicate delivery %#x", v)
							}
							got[v] = true
							consumed++
							mu.Unlock()
						}
					}
				}()
			}
			for p := 0; p < producers; p++ {
				p := p
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perP; i++ {
						pri := (i + p) % npri
						q.Insert(pri, enc(pri, p, i))
					}
				}()
			}
			wg.Wait()
			if len(got) != producers*perP {
				t.Fatalf("consumed %d distinct items, want %d", len(got), producers*perP)
			}
		})
	}
}

func TestSinglePriorityDegenerate(t *testing.T) {
	for _, alg := range Algorithms {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			q := build(t, alg, 1)
			q.Insert(0, 7)
			v, ok := q.DeleteMin()
			if !ok || v != 7 {
				t.Fatalf("DeleteMin = (%d,%v), want (7,true)", v, ok)
			}
		})
	}
}

func TestNumPriorities(t *testing.T) {
	for _, alg := range Algorithms {
		q := build(t, alg, 37)
		if got := q.NumPriorities(); got != 37 {
			t.Errorf("%s: NumPriorities = %d, want 37", alg, got)
		}
	}
}

func TestBitRevPosProperties(t *testing.T) {
	// Within each level the mapping must be a bijection onto the level's
	// slot range.
	for level := uint(0); level < 10; level++ {
		lo := uint64(1) << level
		hi := lo * 2
		seen := map[uint64]bool{}
		for k := lo; k < hi; k++ {
			pos := bitRevPos(k)
			if pos < lo || pos >= hi {
				t.Fatalf("bitRevPos(%d) = %d, outside level [%d,%d)", k, pos, lo, hi)
			}
			if seen[pos] {
				t.Fatalf("bitRevPos collision at %d", pos)
			}
			seen[pos] = true
		}
	}
	// Parent of every occupied slot set must be occupied: the slot set of
	// size n must be "heap-closed".
	for n := uint64(1); n <= 1024; n++ {
		occupied := map[uint64]bool{1: true}
		for k := uint64(1); k <= n; k++ {
			occupied[bitRevPos(k)] = true
		}
		for k := uint64(1); k <= n; k++ {
			pos := bitRevPos(k)
			if pos > 1 && !occupied[pos/2] {
				t.Fatalf("n=%d: slot %d occupied but parent %d is not", n, pos, pos/2)
			}
		}
	}
	// Consecutive insertions within a level land in different subtrees
	// (the whole point of bit reversal): positions for k and k+1 at the
	// same level differ in their top offset bit region.
	if bitRevPos(4) == bitRevPos(5) {
		t.Fatal("bit reversal does not scatter")
	}
}

func TestFIFOBin(t *testing.T) {
	var b fifoBin[int]
	if !b.Empty(struct{}{}) {
		t.Fatal("new fifo bin not empty")
	}
	for i := 1; i <= 5; i++ {
		b.Push(struct{}{}, i)
	}
	for i := 1; i <= 5; i++ {
		v, ok := b.Pop(struct{}{})
		if !ok || v != i {
			t.Fatalf("delete = (%d,%v), want (%d,true)", v, ok, i)
		}
	}
	if _, ok := b.Pop(struct{}{}); ok {
		t.Fatal("delete on empty fifo bin succeeded")
	}
}

func TestAtomicCounter(t *testing.T) {
	var c atomicCounter
	if got := c.BFaD(struct{}{}); got != 0 {
		t.Fatalf("BFaD on zero = %d", got)
	}
	if got := c.FaI(struct{}{}); got != 0 {
		t.Fatalf("FaI = %d, want 0", got)
	}
	if got := c.FaI(struct{}{}); got != 1 {
		t.Fatalf("FaI = %d, want 1", got)
	}
	if got := c.BFaD(struct{}{}); got != 2 {
		t.Fatalf("BFaD = %d, want 2", got)
	}
}

func TestFIFOBinDiscipline(t *testing.T) {
	// With FIFO bins, items of equal priority come out in insertion
	// order; with the default LIFO bags they come out reversed.
	for _, alg := range []Algorithm{SimpleLinear, SimpleTree} {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			for _, fifo := range []bool{false, true} {
				q, err := New[int](alg, Config{Priorities: 4, FIFOBins: fifo})
				if err != nil {
					t.Fatal(err)
				}
				for i := 1; i <= 5; i++ {
					q.Insert(2, i)
				}
				var got []int
				for {
					v, ok := q.DeleteMin()
					if !ok {
						break
					}
					got = append(got, v)
				}
				if len(got) != 5 {
					t.Fatalf("drained %d items", len(got))
				}
				first := got[0]
				if fifo && first != 1 {
					t.Errorf("fifo=%v first=%d, want 1 (order %v)", fifo, first, got)
				}
				if !fifo && first != 5 {
					t.Errorf("fifo=%v first=%d, want 5 (order %v)", fifo, first, got)
				}
			}
		})
	}
}

func TestFIFOBinsConcurrentConservation(t *testing.T) {
	q, err := New[int](SimpleLinear, Config{Priorities: 8, FIFOBins: true})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const goroutines = 6
	const perG = 200
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				q.Insert((i+g)%8, g*perG+i)
			}
		}()
	}
	wg.Wait()
	n := 0
	for {
		if _, ok := q.DeleteMin(); !ok {
			break
		}
		n++
	}
	if n != goroutines*perG {
		t.Fatalf("drained %d, want %d", n, goroutines*perG)
	}
}

// TestIntervalOrderLinearizable runs the interval-order checker (package
// order) against concurrent histories of the strictly linearizable
// queues. Any reported violation is a real linearizability bug.
func TestIntervalOrderLinearizable(t *testing.T) {
	for _, alg := range []Algorithm{SingleLock, SimpleLinear} {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			const (
				goroutines = 6
				perG       = 150
				npri       = 8
			)
			q := build(t, alg, npri)
			base := time.Now()
			clock := func() int64 { return time.Since(base).Nanoseconds() }

			histories := make([][]order.Op, goroutines)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				g := g
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perG; i++ {
						if (i+g)%2 == 0 {
							pri := (i*11 + g) % npri
							v := enc(pri, g, i)
							start := clock()
							q.Insert(pri, v)
							histories[g] = append(histories[g], order.Op{
								Kind: order.Insert, Pri: pri, Val: v, OK: true,
								Start: start, End: clock(),
							})
						} else {
							start := clock()
							v, ok := q.DeleteMin()
							op := order.Op{Kind: order.DeleteMin, OK: ok, Start: start, End: clock()}
							if ok {
								op.Pri, op.Val = dec(v), v
							}
							histories[g] = append(histories[g], op)
						}
					}
				}()
			}
			wg.Wait()
			var all []order.Op
			for _, h := range histories {
				all = append(all, h...)
			}
			if vs := order.Check(all); len(vs) != 0 {
				for _, v := range vs[:min(len(vs), 5)] {
					t.Error(v)
				}
				t.Fatalf("%d interval-order violations", len(vs))
			}
		})
	}
}

func TestFIFOBinsOnFunnelQueues(t *testing.T) {
	// With FIFOBins, the funnel queues use the hybrid bin: equal-priority
	// items drain in insertion order once quiescent.
	for _, alg := range []Algorithm{LinearFunnels, FunnelTree} {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			q, err := New[int](alg, Config{Priorities: 4, FIFOBins: true, Concurrency: 2})
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= 6; i++ {
				q.Insert(2, i)
			}
			for want := 1; want <= 6; want++ {
				v, ok := q.DeleteMin()
				if !ok || v != want {
					t.Fatalf("DeleteMin = (%d,%v), want (%d,true)", v, ok, want)
				}
			}
		})
	}
}
