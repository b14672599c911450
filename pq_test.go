package pq_test

import (
	"sort"
	"strings"
	"sync"
	"testing"

	"pq"
)

func TestNewAllAlgorithms(t *testing.T) {
	for _, alg := range pq.Algorithms() {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			q, err := pq.New[string](alg, 8)
			if err != nil {
				t.Fatal(err)
			}
			q.Insert(3, "c")
			q.Insert(1, "a")
			q.Insert(5, "e")
			var got []string
			for {
				v, ok := q.DeleteMin()
				if !ok {
					break
				}
				got = append(got, v)
			}
			want := []string{"a", "c", "e"}
			if len(got) != len(want) {
				t.Fatalf("drained %v, want %v", got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("drained %v, want %v", got, want)
				}
			}
		})
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := pq.New[int](pq.FunnelTree, 0); err == nil {
		t.Error("priorities=0 accepted")
	}
	if _, err := pq.New[int]("nope", 8); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestOptions(t *testing.T) {
	q, err := pq.NewFunnelTree[int](16,
		pq.WithConcurrency(4),
		pq.WithFunnelCutoff(2),
		pq.WithFunnelParams(pq.FunnelParams{Widths: []int{2}, Attempts: 2, Spin: []int{8}}),
	)
	if err != nil {
		t.Fatal(err)
	}
	q.Insert(7, 7)
	if v, ok := q.DeleteMin(); !ok || v != 7 {
		t.Fatalf("DeleteMin = (%d,%v)", v, ok)
	}
}

func TestConcurrentUseThroughPublicAPI(t *testing.T) {
	q, err := pq.NewFunnelTree[int](8)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const perG = 500
	var wg sync.WaitGroup
	var deleted [goroutines][]int
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if i%2 == 0 {
					q.Insert((i+g)%8, g*perG+i)
				} else if v, ok := q.DeleteMin(); ok {
					deleted[g] = append(deleted[g], v)
				}
			}
		}()
	}
	wg.Wait()
	seen := map[int]bool{}
	n := 0
	for g := range deleted {
		for _, v := range deleted[g] {
			if seen[v] {
				t.Fatalf("duplicate delivery %d", v)
			}
			seen[v] = true
			n++
		}
	}
	for {
		v, ok := q.DeleteMin()
		if !ok {
			break
		}
		if seen[v] {
			t.Fatalf("duplicate delivery %d in drain", v)
		}
		seen[v] = true
		n++
	}
	if n != goroutines*perG/2 {
		t.Fatalf("recovered %d items, want %d", n, goroutines*perG/2)
	}
}

func TestPublicCounter(t *testing.T) {
	c := pq.NewCounter(5, true, 0)
	if got := c.FaD(); got != 5 {
		t.Fatalf("FaD = %d, want 5", got)
	}
	if got := c.FaI(); got != 4 {
		t.Fatalf("FaI = %d, want 4", got)
	}
	if got := c.Value(); got != 5 {
		t.Fatalf("Value = %d, want 5", got)
	}
}

func TestPublicStack(t *testing.T) {
	s := pq.NewStack[string]()
	s.Push("x")
	s.Push("y")
	if v, ok := s.Pop(); !ok || v != "y" {
		t.Fatalf("Pop = (%q,%v)", v, ok)
	}
	if v, ok := s.Pop(); !ok || v != "x" {
		t.Fatalf("Pop = (%q,%v)", v, ok)
	}
	if _, ok := s.Pop(); ok {
		t.Fatal("Pop on empty stack succeeded")
	}
}

func TestDrainOrderAllAlgorithmsAfterConcurrency(t *testing.T) {
	// After concurrent inserts complete, a sequential drain must be
	// sorted for the strictly ordered algorithms and a complete multiset
	// for all.
	for _, alg := range pq.Algorithms() {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			const npri = 16
			q, err := pq.New[int](alg, npri)
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
						pri := (i*7 + g) % npri
						q.Insert(pri, pri)
					}
				}()
			}
			wg.Wait()
			var pris []int
			for {
				v, ok := q.DeleteMin()
				if !ok {
					break
				}
				pris = append(pris, v)
			}
			if len(pris) != goroutines*perG {
				t.Fatalf("drained %d, want %d", len(pris), goroutines*perG)
			}
			if alg != pq.SkipList && alg != pq.HuntEtAl && !sort.IntsAreSorted(pris) {
				t.Fatalf("%s: drain not sorted", alg)
			}
		})
	}
}

func TestDrainAPI(t *testing.T) {
	// pq.Drain is the snapshot iterator: it must empty the queue,
	// return the full multiset in priority order (ascending for the
	// quiescent/strict queues at quiescence), and compose with
	// InsertBatch to restore the queue unchanged.
	for _, alg := range pq.Algorithms() {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			const npri = 8
			q, err := pq.New[int](alg, npri)
			if err != nil {
				t.Fatal(err)
			}
			want := map[int]int{}
			for i := 0; i < 500; i++ {
				pri := (i * 5) % npri
				q.Insert(pri, i)
				want[pri]++
			}
			items := pq.Drain(q)
			if len(items) != 500 {
				t.Fatalf("Drain returned %d items, want 500", len(items))
			}
			if _, ok := q.DeleteMin(); ok {
				t.Fatal("queue not empty after Drain")
			}
			got := map[int]int{}
			prev := -1
			for _, it := range items {
				got[it.Pri]++
				if it.Pri < prev {
					t.Fatalf("drain order regressed: %d after %d", it.Pri, prev)
				}
				prev = it.Pri
			}
			for pri, n := range want {
				if got[pri] != n {
					t.Fatalf("priority %d: drained %d, want %d", pri, got[pri], n)
				}
			}
			// Restore and re-drain: the round trip must preserve the
			// multiset (the server's non-destructive snapshot pattern).
			pq.InsertBatch(q, items)
			if again := pq.Drain(q); len(again) != 500 {
				t.Fatalf("re-drain returned %d items, want 500", len(again))
			}
		})
	}
	if got := pq.Drain[int](mustQueue(t)); len(got) != 0 {
		t.Fatalf("Drain of empty queue returned %d items", len(got))
	}
}

func mustQueue(t *testing.T) pq.Queue[int] {
	t.Helper()
	q, err := pq.New[int](pq.FunnelTree, 4)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestRelaxedRegistry(t *testing.T) {
	for _, alg := range pq.Algorithms() {
		if pq.IsRelaxed(alg) {
			t.Errorf("strict registry contains relaxed %q", alg)
		}
	}
	if !pq.IsRelaxed(pq.MultiQueue) {
		t.Error("MultiQueue not marked relaxed")
	}
	all := pq.AllAlgorithms()
	if want := len(pq.Algorithms()) + len(pq.RelaxedAlgorithms()); len(all) != want {
		t.Fatalf("AllAlgorithms has %d entries, want %d", len(all), want)
	}
	if alg, err := pq.ParseAlgorithm("multiqueue"); err != nil || alg != pq.MultiQueue {
		t.Fatalf("ParseAlgorithm(multiqueue) = (%q, %v)", alg, err)
	}
	_, err := pq.ParseAlgorithm("nope")
	if err == nil {
		t.Fatal("ParseAlgorithm accepted an unknown name")
	}
	if !strings.Contains(err.Error(), string(pq.MultiQueue)) || !strings.Contains(err.Error(), string(pq.FunnelTree)) {
		t.Fatalf("parse error does not list valid names: %v", err)
	}
}

func TestMultiQueuePublicAPI(t *testing.T) {
	q, err := pq.New[int](pq.MultiQueue, 16,
		pq.WithConcurrency(4),
		pq.WithMultiQueueC(3),
		pq.WithMultiQueueRankTracking(true),
	)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, perG = 4, 300
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if i%2 == 0 {
					q.Insert((i*7+g)%16, g*perG+i)
				} else {
					q.DeleteMin()
				}
			}
		}()
	}
	wg.Wait()
	rs, ok := pq.RelaxStatsOf(q)
	if !ok {
		t.Fatal("RelaxStatsOf reported no stats for MultiQueue")
	}
	if !rs.Tracked || rs.Pops == 0 {
		t.Fatalf("rank accounting absent: %+v", rs)
	}
	if rs.Mean() < 0 || rs.Quantile(0.99) < 0 {
		t.Fatalf("nonsensical rank stats: %+v", rs)
	}
	// Strict queues carry no rank accounting.
	if _, ok := pq.RelaxStatsOf[int](mustQueue(t)); ok {
		t.Error("RelaxStatsOf reported stats for an exact queue")
	}
	// Drain must still conserve items exactly.
	q2, err := pq.New[int](pq.MultiQueue, 8, pq.WithMultiQueueRankTracking(false))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		q2.Insert(i%8, i)
	}
	if got := pq.Drain(q2); len(got) != 100 {
		t.Fatalf("Drain returned %d items, want 100", len(got))
	}
	if rs, ok := pq.RelaxStatsOf(q2); !ok || rs.Tracked {
		t.Fatalf("RankTracking(false) still tracked: %+v ok=%v", rs, ok)
	}
}
