package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pq/internal/refpq"
)

// exactSequentialMatch lists the implementations whose sequential
// behaviour must match the reference value-for-value: their bins are
// stacks (or FIFO queues in FIFO mode), and SingleLock's heap breaks
// priority ties by insertion order the same way, so even equal-priority
// order is determined. Hunt et al.'s heap orders equal priorities
// arbitrarily and the skip list's delete-bin serves one stale priority
// level; those are checked for multiset + priority order elsewhere.
var exactSequentialMatch = []Algorithm{SingleLock, SimpleLinear, SimpleTree, LinearFunnels, FunnelTree}

// TestDifferentialSequential quick-checks every exactly matching queue
// against the reference on random operation streams.
func TestDifferentialSequential(t *testing.T) {
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
					var ref *refpq.Queue
					if fifo {
						ref = refpq.NewFIFO(npri)
					} else {
						ref = refpq.New(npri)
					}
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < 300; i++ {
						if rng.Intn(5) < 3 {
							pri := rng.Intn(npri)
							v := uint64(i)<<8 | uint64(pri)
							q.Insert(pri, v)
							ref.Insert(pri, v)
						} else {
							gv, gok := q.DeleteMin()
							wv, wok := ref.DeleteMin()
							if gok != wok || (gok && gv != wv) {
								t.Logf("op %d: got (%d,%v), want (%d,%v)", i, gv, gok, wv, wok)
								return false
							}
						}
					}
					// Drain both and compare the tails.
					for {
						gv, gok := q.DeleteMin()
						wv, wok := ref.DeleteMin()
						if gok != wok || (gok && gv != wv) {
							t.Logf("drain: got (%d,%v), want (%d,%v)", gv, gok, wv, wok)
							return false
						}
						if !gok {
							return true
						}
					}
				}
				if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestDifferentialHeapsMultiset checks the remaining implementations for
// priority-level equivalence with the reference (values within a
// priority may permute).
func TestDifferentialHeapsMultiset(t *testing.T) {
	for _, alg := range []Algorithm{SingleLock, HuntEtAl, SkipList} {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			f := func(seed int64, nPriRaw uint8) bool {
				npri := int(nPriRaw%16) + 1
				q, err := New[uint64](alg, Config{Priorities: npri, Concurrency: 2})
				if err != nil {
					t.Fatal(err)
				}
				ref := refpq.New(npri)
				rng := rand.New(rand.NewSource(seed))
				pri := func(v uint64) int { return int(v & 0xff) }
				for i := 0; i < 300; i++ {
					if rng.Intn(5) < 3 {
						p := rng.Intn(npri)
						v := uint64(i)<<8 | uint64(p)
						q.Insert(p, v)
						ref.Insert(p, v)
					} else {
						gv, gok := q.DeleteMin()
						wv, wok := ref.DeleteMin()
						if gok != wok {
							t.Logf("op %d: ok mismatch %v vs %v", i, gok, wok)
							return false
						}
						// The skip list may serve a stale (higher) priority
						// level from its delete bin; the heaps must return
						// exactly the minimum level.
						if gok && alg != SkipList && pri(gv) != pri(wv) {
							t.Logf("op %d: pri %d, want %d", i, pri(gv), pri(wv))
							return false
						}
					}
				}
				// Both must hold the same number of items at the end.
				n1, n2 := 0, ref.Len()
				for {
					if _, ok := q.DeleteMin(); !ok {
						break
					}
					n1++
				}
				return n1 == n2
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
