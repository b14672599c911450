package core

import (
	"testing"

	"pq/internal/refpq"
)

// runDifferentialTape decodes a fuzz byte tape into a mixed
// single/batch operation stream and plays it through every algorithm
// against the reference oracle. Byte 0 picks the priority range; each
// following byte is one operation: the low two bits select the kind
// (single insert, batch insert, single delete, batch delete) and the
// high bits the priority or batch size. The queues in
// exactSequentialMatch must match the oracle value-for-value; Hunt et
// al.'s heap must match its priorities (sequentially it always pops the
// true minimum); the skip list — whose
// delete bin serves one stale priority level — must match ok-results and
// conserve values.
func runDifferentialTape(t *testing.T, data []byte) {
	if len(data) < 2 {
		return
	}
	npri := int(data[0]%16) + 1
	tape := data[1:]
	for _, alg := range Algorithms {
		exact := false
		for _, e := range exactSequentialMatch {
			if alg == e {
				exact = true
			}
		}
		q, err := New[uint64](alg, Config{Priorities: npri, Concurrency: 2})
		if err != nil {
			t.Fatal(err)
		}
		bq, ok := q.(BatchQueue[uint64])
		if !ok {
			t.Fatalf("%s does not implement BatchQueue", alg)
		}
		ref := refpq.New(npri)
		outstanding := map[uint64]bool{}
		seq := 0
		mkVal := func(pri int) uint64 {
			v := uint64(seq)<<8 | uint64(pri)
			seq++
			outstanding[v] = true
			return v
		}
		check := func(i int, it Item[uint64], want refpq.Item) {
			t.Helper()
			if !outstanding[it.Val] {
				t.Fatalf("%s op %d: returned %+v which is not outstanding", alg, i, it)
			}
			delete(outstanding, it.Val)
			if it.Pri != int(it.Val&0xff) {
				t.Fatalf("%s op %d: item %+v reports wrong priority", alg, i, it)
			}
			if exact && (it.Val != want.Val || it.Pri != want.Pri) {
				t.Fatalf("%s op %d: got %+v, want %+v", alg, i, it, want)
			}
			if alg != SkipList && it.Pri != want.Pri {
				t.Fatalf("%s op %d: priority %d, want %d", alg, i, it.Pri, want.Pri)
			}
		}
		for i, b := range tape {
			switch b & 3 {
			case 0: // single insert
				pri := int(b>>2) % npri
				v := mkVal(pri)
				q.Insert(pri, v)
				ref.Insert(pri, v)
			case 1: // batch insert
				n := int(b>>2)%8 + 1
				items := make([]Item[uint64], n)
				refItems := make([]refpq.Item, n)
				for j := range items {
					pri := (int(b>>2) + j*3) % npri
					v := mkVal(pri)
					items[j] = Item[uint64]{Pri: pri, Val: v}
					refItems[j] = refpq.Item{Pri: pri, Val: v}
				}
				bq.InsertBatch(items)
				ref.InsertBatch(refItems)
			case 2: // single delete
				gv, gok := q.DeleteMin()
				wv, wok := ref.DeleteMin()
				if gok != wok {
					t.Fatalf("%s op %d: ok %v, want %v", alg, i, gok, wok)
				}
				if gok {
					check(i, Item[uint64]{Pri: int(gv & 0xff), Val: gv}, refpq.Item{Pri: int(wv & 0xff), Val: wv})
				}
			case 3: // batch delete
				k := int(b>>2)%8 + 1
				got := bq.DeleteMinBatch(k)
				want := ref.DeleteMinBatch(k)
				if len(got) != len(want) {
					t.Fatalf("%s op %d: batch returned %d items, want %d", alg, i, len(got), len(want))
				}
				for j := range got {
					check(i, got[j], want[j])
				}
			}
		}
		got := bq.DeleteMinBatch(ref.Len() + 1)
		want := ref.DeleteMinBatch(ref.Len() + 1)
		if len(got) != len(want) {
			t.Fatalf("%s drain: %d items, want %d", alg, len(got), len(want))
		}
		for j := range got {
			check(len(tape), got[j], want[j])
		}
		if len(outstanding) != 0 {
			t.Fatalf("%s: %d values lost", alg, len(outstanding))
		}
	}
	runRelaxedTape(t, data)
}

// runRelaxedTape plays the same tape through MultiQueue against the
// rank-aware relaxed oracle. A relaxed pop need not return the minimum,
// so instead of value-for-value matching the oracle checks conservation
// (each pop removes exactly one still-queued item via refpq.Remove),
// emptiness (a pop fails only when the oracle is empty — exact
// sequentially thanks to the full scan), and that the queue's internal
// rank accounting agrees with refpq.Rank at every pop.
func runRelaxedTape(t *testing.T, data []byte) {
	if len(data) < 2 {
		return
	}
	npri := int(data[0]%16) + 1
	tape := data[1:]
	configs := []Config{
		{Priorities: npri, Concurrency: 2},
		{Priorities: npri, Concurrency: 2, MultiQueueC: 4},
	}
	for ci, cfg := range configs {
		q, err := New[uint64](MultiQueue, cfg)
		if err != nil {
			t.Fatal(err)
		}
		bq := q.(BatchQueue[uint64])
		ref := refpq.New(npri)
		seq := 0
		wantRankSum := int64(0)
		mkVal := func(pri int) uint64 {
			v := uint64(seq)<<8 | uint64(pri)
			seq++
			return v
		}
		take := func(i int, it Item[uint64]) {
			t.Helper()
			if it.Pri != int(it.Val&0xff) {
				t.Fatalf("multiqueue/%d op %d: item %+v reports wrong priority", ci, i, it)
			}
			wantRankSum += int64(ref.Rank(it.Pri))
			if !ref.Remove(it.Pri, it.Val) {
				t.Fatalf("multiqueue/%d op %d: returned %+v which the oracle does not hold", ci, i, it)
			}
		}
		for i, b := range tape {
			switch b & 3 {
			case 0:
				pri := int(b>>2) % npri
				v := mkVal(pri)
				q.Insert(pri, v)
				ref.Insert(pri, v)
			case 1:
				n := int(b>>2)%8 + 1
				items := make([]Item[uint64], n)
				for j := range items {
					pri := (int(b>>2) + j*3) % npri
					v := mkVal(pri)
					items[j] = Item[uint64]{Pri: pri, Val: v}
					ref.Insert(pri, v)
				}
				bq.InsertBatch(items)
			case 2:
				gv, gok := q.DeleteMin()
				if gok != (ref.Len() > 0) {
					t.Fatalf("multiqueue/%d op %d: ok %v with %d items queued", ci, i, gok, ref.Len())
				}
				if gok {
					take(i, Item[uint64]{Pri: int(gv & 0xff), Val: gv})
				}
			case 3:
				k := int(b>>2)%8 + 1
				want := ref.Len()
				if want > k {
					want = k
				}
				got := bq.DeleteMinBatch(k)
				if len(got) != want {
					t.Fatalf("multiqueue/%d op %d: batch returned %d items, want %d", ci, i, len(got), want)
				}
				for _, it := range got {
					take(i, it)
				}
			}
		}
		got := bq.DeleteMinBatch(ref.Len() + 1)
		if len(got) != ref.Len() {
			t.Fatalf("multiqueue/%d drain: %d items, want %d", ci, len(got), ref.Len())
		}
		for _, it := range got {
			take(len(tape), it)
		}
		if ref.Len() != 0 {
			t.Fatalf("multiqueue/%d: %d values lost", ci, ref.Len())
		}
		rs := q.(RelaxedQueue).RelaxStats()
		if !rs.Tracked {
			t.Fatalf("multiqueue/%d: rank accounting off for %d priorities", ci, npri)
		}
		if int(rs.Pops) != seq {
			t.Fatalf("multiqueue/%d: accounted %d pops, want %d", ci, rs.Pops, seq)
		}
		if rs.RankSum != wantRankSum {
			t.Fatalf("multiqueue/%d: accounted rank sum %d, oracle says %d", ci, rs.RankSum, wantRankSum)
		}
	}
}

// FuzzDifferential feeds randomized operation tapes through every
// algorithm against the refpq oracle; see runDifferentialTape for the
// encoding. The seed corpus lives in testdata/fuzz/FuzzDifferential and
// runs as regular unit tests when not fuzzing.
func FuzzDifferential(f *testing.F) {
	f.Add([]byte{7, 0, 4, 8, 2, 1, 3, 2, 3})
	f.Add([]byte{3, 0, 0, 0, 3, 3, 3, 2, 2, 2})
	f.Add([]byte{15, 1, 5, 9, 13, 3, 7, 11, 15, 2, 0, 3})
	f.Add([]byte{0, 29, 3})
	f.Add([]byte{11, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	// MultiQueue-targeted seeds: an all-ties tape (one priority) and a
	// scan-heavy tape mixing empty deletes with scattered inserts.
	f.Add([]byte{0, 0, 4, 8, 12, 16, 20, 24, 28, 5, 2, 2, 2, 2, 2, 2, 15, 3})
	f.Add([]byte{15, 2, 3, 0, 60, 2, 2, 2, 17, 31, 11, 3, 3, 2})
	f.Fuzz(runDifferentialTape)
}
