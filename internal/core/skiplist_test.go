package core

import (
	"sync"
	"testing"
)

func newSkip(t *testing.T, npri int) *skipList[uint64] {
	t.Helper()
	q, err := New[uint64](SkipList, Config{Priorities: npri})
	if err != nil {
		t.Fatal(err)
	}
	return q.(*skipList[uint64])
}

func TestSkipListThreadUnthreadCycle(t *testing.T) {
	q := newSkip(t, 8)
	// Repeatedly drain and refill one priority: the link must re-thread
	// cleanly every time.
	for round := 0; round < 20; round++ {
		q.Insert(3, uint64(round))
		v, ok := q.DeleteMin()
		if !ok || v != uint64(round) {
			t.Fatalf("round %d: DeleteMin = (%d,%v)", round, v, ok)
		}
		if _, ok := q.DeleteMin(); ok {
			t.Fatalf("round %d: drained queue not empty", round)
		}
	}
}

func TestSkipListLevel0Integrity(t *testing.T) {
	// After any quiescent point, every threaded link must be reachable at
	// level 0 — the exact invariant the unthread/thread race used to
	// break.
	q := newSkip(t, 16)
	const goroutines = 8
	const perG = 400
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if (i+g)%2 == 0 {
					q.Insert((i*7+g)%16, uint64(g*perG+i)|1<<40)
				} else {
					q.DeleteMin()
				}
			}
		}()
	}
	wg.Wait()

	reachable := map[int]bool{}
	for n := q.headFwd[0].Load(); n != 0; n = q.links[n-1].fwd[0].Load() {
		reachable[int(n-1)] = true
	}
	for i := range q.links {
		if q.links[i].state.Load() == slThreaded && !reachable[i] {
			t.Fatalf("link %d threaded but unreachable at level 0", i)
		}
	}

	// And a full drain must recover everything that's left.
	left := 0
	for {
		if _, ok := q.DeleteMin(); !ok {
			break
		}
		left++
	}
	for i := range q.links {
		if !q.links[i].bin.Empty(struct{}{}) {
			t.Fatalf("bin %d non-empty after drain", i)
		}
	}
	_ = left
}

func TestSkipListHeavyRethreadChurn(t *testing.T) {
	// A few priorities, many goroutines: maximal thread/unthread traffic,
	// which is where the skip list's state machine earns its keep.
	q := newSkip(t, 3)
	const goroutines = 12
	const perG = 500
	var (
		wg       sync.WaitGroup
		inserted [goroutines]int
		removed  [goroutines]int
	)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if i%2 == 0 {
					q.Insert(i%3, uint64(g)<<32|uint64(i))
					inserted[g]++
				} else if _, ok := q.DeleteMin(); ok {
					removed[g]++
				}
			}
		}()
	}
	wg.Wait()
	ins, rem := 0, 0
	for g := 0; g < goroutines; g++ {
		ins += inserted[g]
		rem += removed[g]
	}
	for {
		if _, ok := q.DeleteMin(); !ok {
			break
		}
		rem++
	}
	if ins != rem {
		t.Fatalf("inserted %d, recovered %d (items lost or duplicated)", ins, rem)
	}
}

// TestSkipListInsertVisibleOnReturn pins that an item is reachable the
// moment its Insert returns. Every goroutine inserts and then deletes, so
// at any instant at least as many inserts have completed as deletes have
// begun and no delete may report empty. An Insert that returned while
// another goroutine was still threading the link broke exactly this: the
// item sat in an unreachable bin until that goroutine was rescheduled.
func TestSkipListInsertVisibleOnReturn(t *testing.T) {
	q := newSkip(t, 4)
	const goroutines = 8
	rounds := 20000
	if testing.Short() {
		rounds = 4000
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				q.Insert((i+g)%2, uint64(g*rounds+i))
				if _, ok := q.DeleteMin(); !ok {
					t.Errorf("goroutine %d round %d: DeleteMin reported empty after its own Insert returned", g, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}
