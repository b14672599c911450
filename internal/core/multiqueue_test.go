package core

import (
	"math"
	"math/rand/v2"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pq/internal/order"
)

// recordMultiQueue runs procs goroutines of mixed operations against a
// MultiQueue and returns the timestamped history. Timestamps come from
// one atomic counter, a valid monotonic source across goroutines.
func recordMultiQueue(t *testing.T, cfg Config, procs, opsPerProc int) ([]order.Op, RelaxStats) {
	t.Helper()
	q, err := New[uint64](MultiQueue, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var clock atomic.Int64
	var mu sync.Mutex
	var history []order.Op
	var wg sync.WaitGroup
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), uint64(opsPerProc)))
			local := make([]order.Op, 0, opsPerProc)
			for i := 0; i < opsPerProc; i++ {
				if i%2 == 0 || i < 4 {
					pri := rng.IntN(cfg.Priorities)
					val := uint64(g)<<32 | uint64(i)
					start := clock.Add(1)
					q.Insert(pri, val)
					end := clock.Add(1)
					local = append(local, order.Op{
						Kind: order.Insert, Pri: pri, Val: val, OK: true, Start: start, End: end,
					})
				} else {
					start := clock.Add(1)
					val, ok := q.DeleteMin()
					end := clock.Add(1)
					op := order.Op{Kind: order.DeleteMin, OK: ok, Start: start, End: end}
					if ok {
						op.Val = val
						op.Pri = -1 // recovered from the matching insert below
					}
					local = append(local, op)
				}
			}
			mu.Lock()
			history = append(history, local...)
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	// Recover each pop's priority from its insert (values are unique).
	pri := make(map[uint64]int, len(history))
	for _, op := range history {
		if op.Kind == order.Insert {
			pri[op.Val] = op.Pri
		}
	}
	for i := range history {
		if history[i].Kind == order.DeleteMin && history[i].OK {
			p, ok := pri[history[i].Val]
			if !ok {
				t.Fatalf("pop returned never-inserted value %#x", history[i].Val)
			}
			history[i].Pri = p
		}
	}
	return history, q.(RelaxedQueue).RelaxStats()
}

// TestMultiQueueRelaxedChecker runs MultiQueue concurrently across its
// knob space and requires the relaxed order checker to pass every run —
// the acceptance gate of the relaxed contract. The rank budget handed to
// the checker is the generous whp bound; uniqueness, precedence and
// emptiness have no budget at all.
func TestMultiQueueRelaxedChecker(t *testing.T) {
	const procs, ops = 8, 400
	for _, cfg := range []Config{
		{Priorities: 64, Concurrency: procs},
		{Priorities: 64, Concurrency: procs, MultiQueueC: 4},
		{Priorities: 64, Concurrency: procs, MultiQueueC: 2, FIFOBins: true},
	} {
		history, _ := recordMultiQueue(t, cfg, procs, ops)
		c := cfg.MultiQueueC
		if c == 0 {
			c = 2
		}
		nq := CeilPow2(c * procs)
		budget := 64 * nq // far above the O(nq·log) whp rank bound
		if vs := order.CheckRelaxed(history, order.RelaxedBound{MaxRank: budget}); len(vs) != 0 {
			t.Fatalf("cfg %+v: relaxed checker: %d violations, first: %v", cfg, len(vs), vs[0])
		}
	}
}

// TestMultiQueueStrictCheckerRejects is the must-fail direction: the
// strict checker has to keep rejecting relaxed output. Even run
// sequentially, a MultiQueue spreads items over nq sub-heaps and pops
// from the better of two random ones, so with hundreds of scattered
// items the chance that every pop happens to be the true minimum is
// astronomically small; a handful of attempts makes the test
// deterministic in practice while the same histories satisfy the
// relaxed checker.
func TestMultiQueueStrictCheckerRejects(t *testing.T) {
	const npri = 64
	for attempt := 0; attempt < 8; attempt++ {
		q, err := New[uint64](MultiQueue, Config{Priorities: npri, Concurrency: 8})
		if err != nil {
			t.Fatal(err)
		}
		var history []order.Op
		ts := int64(0)
		rng := rand.New(rand.NewPCG(uint64(attempt), 99))
		record := func(kind order.Kind, pri int, val uint64, ok bool) {
			history = append(history, order.Op{
				Kind: kind, Pri: pri, Val: val, OK: ok, Start: ts, End: ts + 1,
			})
			ts += 2
		}
		val := uint64(0)
		pris := make(map[uint64]int)
		insert := func() {
			pri := rng.IntN(npri)
			val++
			pris[val] = pri
			q.Insert(pri, val)
			record(order.Insert, pri, val, true)
		}
		remove := func() {
			v, ok := q.DeleteMin()
			record(order.DeleteMin, pris[v], v, ok)
		}
		for i := 0; i < 200; i++ {
			insert()
		}
		for i := 0; i < 400; i++ {
			if i%2 == 0 {
				insert()
			} else {
				remove()
			}
		}
		for i := 0; i < 250; i++ {
			remove()
		}
		strict := order.Check(history)
		if len(strict) == 0 {
			continue // freak all-minimum run; try again
		}
		for _, v := range strict {
			if v.Rule != "priority" {
				t.Fatalf("strict checker found a non-priority violation in a sequential run: %v", v)
			}
		}
		// The identical history is fine under the relaxed contract.
		if vs := order.CheckRelaxed(history, order.RelaxedBound{MaxRank: 4096}); len(vs) != 0 {
			t.Fatalf("relaxed checker rejected a sequential MultiQueue history: %v", vs[0])
		}
		return
	}
	t.Fatal("strict checker accepted 8 consecutive MultiQueue histories — relaxation is not observable")
}

// TestMultiQueueRankStatistical checks the Williams & Sanders quality
// claim empirically for c in {2,4}: mean rank error stays O(c·p) and the
// p99 within the exponential-tail envelope. The slack factors keep the
// test deterministic-in-practice across schedulers while still
// distinguishing a real MultiQueue from, say, a random-queue pop
// (whose rank error grows with the queue size, not with c·p).
func TestMultiQueueRankStatistical(t *testing.T) {
	const procs, ops, npri = 8, 2000, 256
	for _, c := range []int{2, 4} {
		cfg := Config{Priorities: npri, Concurrency: procs, MultiQueueC: c}
		_, rs := recordMultiQueue(t, cfg, procs, ops)
		if !rs.Tracked || rs.Pops == 0 {
			t.Fatalf("c=%d: no rank accounting (%+v)", c, rs)
		}
		m := float64(CeilPow2(c * procs))
		mean := rs.Mean()
		if limit := 3*m + 16; mean > limit {
			t.Errorf("c=%d: mean rank error %.1f exceeds %.1f (m=%v)", c, mean, limit, m)
		}
		p99 := rs.Quantile(0.99)
		if limit := m * (math.Log2(float64(rs.Pops)) + 8); p99 > limit {
			t.Errorf("c=%d: p99 rank error %.0f exceeds %.0f (m=%v, pops=%d)", c, p99, limit, m, rs.Pops)
		}
	}
}

// TestMultiQueueDrainConservation fills a MultiQueue from many
// goroutines and drains it: every item must come back exactly once, and
// the emptiness scan must report empty only after the last one.
func TestMultiQueueDrainConservation(t *testing.T) {
	const procs, per, npri = 8, 500, 32
	q, err := New[uint64](MultiQueue, Config{
		Priorities: npri, Concurrency: procs,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				q.Insert((g+i)%npri, uint64(g)<<32|uint64(i))
				if i%3 == 2 {
					// Reinsert what each pop delivered to keep the count
					// stable.
					if v, ok := q.DeleteMin(); ok {
						q.Insert(int(v>>32+v)%npri, uint64(procs+g)<<32|uint64(i))
					}
				}
			}
		}(g)
	}
	wg.Wait()
	// Count live items: inserts minus delivered pops is unknowable here,
	// so just drain and verify uniqueness plus a clean empty report.
	seen := make(map[uint64]bool)
	bq := q.(BatchQueue[uint64])
	total := 0
	for {
		got := bq.DeleteMinBatch(64)
		if len(got) == 0 {
			break
		}
		for _, it := range got {
			if seen[it.Val] {
				t.Fatalf("value %#x drained twice", it.Val)
			}
			seen[it.Val] = true
		}
		total += len(got)
	}
	if v, ok := q.DeleteMin(); ok {
		t.Fatalf("DeleteMin found %#x after a clean drain", v)
	}
	if total == 0 {
		t.Fatal("drain found nothing")
	}
}

// TestMultiQueueZeroAlloc holds an Insert+DeleteMin pair on a
// 1,000-item MultiQueue to zero allocations: DeleteMin pops into a stack
// buffer, and the sub-heaps only grow while the queue does. The race
// detector instruments allocations, so the count only means something
// without it.
func TestMultiQueueZeroAlloc(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation counts are not meaningful under the race detector")
			}
		}
	}
	const npri = 64
	q, err := New[int](MultiQueue, Config{Priorities: npri, Concurrency: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		q.Insert(i%npri, i)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		q.Insert(i%npri, i)
		i++
		if _, ok := q.DeleteMin(); !ok {
			t.Fatal("DeleteMin found a 1,000-item queue empty")
		}
	})
	if allocs != 0 {
		t.Fatalf("Insert+DeleteMin allocated %v times per pair, want 0", allocs)
	}
}

// TestMultiQueueRelaxStats sanity-checks the RelaxStats arithmetic.
func TestMultiQueueRelaxStats(t *testing.T) {
	s := RelaxStats{Pops: 4, RankSum: 6, RankMax: 3, Counts: make([]int64, 10), Tracked: true}
	s.Counts[0] = 1
	s.Counts[1] = 2
	s.Counts[3] = 1
	if got := s.Mean(); got != 1.5 {
		t.Fatalf("Mean = %v", got)
	}
	if got := s.Quantile(0.5); got != 1 {
		t.Fatalf("Quantile(0.5) = %v", got)
	}
	if got := s.Quantile(1); got != 3 {
		t.Fatalf("Quantile(1) = %v", got)
	}
	m := s.Merge(s)
	if m.Pops != 8 || m.RankSum != 12 || m.RankMax != 3 || m.Counts[1] != 4 {
		t.Fatalf("Merge = %+v", m)
	}
	var un RelaxStats
	if got := un.Merge(s); got.Pops != 4 || !got.Tracked {
		t.Fatalf("Merge from untracked = %+v", got)
	}
}

// TestParseAlgorithm pins the registry split: the strict seven stay in
// Algorithms, MultiQueue is relaxed-only, and parsing is
// case-insensitive over All().
func TestParseAlgorithm(t *testing.T) {
	for _, a := range Algorithms {
		if IsRelaxed(a) {
			t.Fatalf("%s must not be relaxed", a)
		}
	}
	if !IsRelaxed(MultiQueue) {
		t.Fatal("MultiQueue must be relaxed")
	}
	for _, a := range Algorithms {
		if a == MultiQueue {
			t.Fatal("MultiQueue must not be in the strict Algorithms list")
		}
	}
	if got := All(); got[len(got)-1] != MultiQueue || len(got) != len(Algorithms)+1 {
		t.Fatalf("All() = %v", got)
	}
	for _, s := range []string{"multiqueue", "MultiQueue", "MULTIQUEUE"} {
		if a, err := ParseAlgorithm(s); err != nil || a != MultiQueue {
			t.Fatalf("ParseAlgorithm(%q) = %v, %v", s, a, err)
		}
	}
	if a, err := ParseAlgorithm("funneltree"); err != nil || a != FunnelTree {
		t.Fatalf("ParseAlgorithm(funneltree) = %v, %v", a, err)
	}
	if _, err := ParseAlgorithm("nope"); err == nil || !strings.Contains(err.Error(), "valid: SingleLock,") {
		t.Fatalf("ParseAlgorithm(nope) = %v, want an error listing the valid names", err)
	}
}
