package order

import "testing"

// Hand-built batch histories pin the checker's batch rules down before
// they judge the native batch fast paths: each must-fail case flags the
// right rule and each must-pass case stays clean.

func TestBatchCleanHistory(t *testing.T) {
	h := []Op{
		{Kind: Insert, Pri: 3, Val: 1, OK: true, Start: 0, End: 1, Batch: 1},
		{Kind: Insert, Pri: 1, Val: 2, OK: true, Start: 0, End: 1, Batch: 1},
		{Kind: DeleteMin, Pri: 1, Val: 2, OK: true, Start: 2, End: 3, Batch: 2},
		{Kind: DeleteMin, Pri: 3, Val: 1, OK: true, Start: 2, End: 3, Batch: 2},
		{Kind: DeleteMin, OK: false, Start: 2, End: 3, Batch: 2},
	}
	if vs := Check(h); len(vs) != 0 {
		t.Fatalf("clean batch history flagged: %v", vs)
	}
}

func TestBatchOverlapMismatch(t *testing.T) {
	// Two ops claim the same batch id but disagree on the interval — a
	// recorder bug or an overlap of two distinct calls.
	h := []Op{
		{Kind: Insert, Pri: 1, Val: 1, OK: true, Start: 0, End: 5, Batch: 7},
		{Kind: Insert, Pri: 2, Val: 2, OK: true, Start: 3, End: 8, Batch: 7},
	}
	requireRule(t, Check(h), "batch")
}

func TestBatchKindMismatch(t *testing.T) {
	h := []Op{
		{Kind: Insert, Pri: 1, Val: 1, OK: true, Start: 0, End: 5, Batch: 7},
		{Kind: DeleteMin, Pri: 1, Val: 1, OK: true, Start: 0, End: 5, Batch: 7},
	}
	requireRule(t, Check(h), "batch")
}

func TestBatchDeleteOrderViolation(t *testing.T) {
	// A delete batch must come out in nondecreasing priority order.
	h := []Op{
		{Kind: Insert, Pri: 1, Val: 1, OK: true, Start: 0, End: 1},
		{Kind: Insert, Pri: 4, Val: 2, OK: true, Start: 0, End: 1},
		{Kind: DeleteMin, Pri: 4, Val: 2, OK: true, Start: 2, End: 3, Batch: 5},
		{Kind: DeleteMin, Pri: 1, Val: 1, OK: true, Start: 2, End: 3, Batch: 5},
	}
	requireRule(t, Check(h), "batch-order")
}

func TestBatchSuccessAfterDry(t *testing.T) {
	// Once a batch reports the queue dry, no later sub-delete may succeed.
	h := []Op{
		{Kind: Insert, Pri: 1, Val: 1, OK: true, Start: 0, End: 1},
		{Kind: DeleteMin, OK: false, Start: 2, End: 3, Batch: 5},
		{Kind: DeleteMin, Pri: 1, Val: 1, OK: true, Start: 2, End: 3, Batch: 5},
	}
	requireRule(t, Check(h), "batch-order")
}

func TestBatchLostItem(t *testing.T) {
	// A batch insert's item vanishing shows up as an emptiness violation
	// when a later delete claims the queue is dry.
	h := []Op{
		{Kind: Insert, Pri: 1, Val: 1, OK: true, Start: 0, End: 1, Batch: 1},
		{Kind: Insert, Pri: 2, Val: 2, OK: true, Start: 0, End: 1, Batch: 1},
		{Kind: DeleteMin, Pri: 1, Val: 1, OK: true, Start: 2, End: 3},
		{Kind: DeleteMin, OK: false, Start: 4, End: 5},
	}
	requireRule(t, Check(h), "emptiness")
}

func TestBatchDoubleDelivery(t *testing.T) {
	// The same value served to two sub-deletes of one batch.
	h := []Op{
		{Kind: Insert, Pri: 1, Val: 9, OK: true, Start: 0, End: 1},
		{Kind: DeleteMin, Pri: 1, Val: 9, OK: true, Start: 2, End: 3, Batch: 4},
		{Kind: DeleteMin, Pri: 1, Val: 9, OK: true, Start: 2, End: 3, Batch: 4},
	}
	requireRule(t, Check(h), "uniqueness")
}

func TestQuiescentToleratesBusyPeriodReorder(t *testing.T) {
	// The delete returns the worse item and leaves the better one behind,
	// but a still-running insert chains its busy period back over the
	// better item's insert. Linearizability flags it; quiescent
	// consistency must not.
	h := []Op{
		{Kind: Insert, Pri: 0, Val: 1, OK: true, Start: 0, End: 2},
		{Kind: Insert, Pri: 5, Val: 2, OK: true, Start: 1, End: 6},
		{Kind: DeleteMin, Pri: 5, Val: 2, OK: true, Start: 3, End: 7},
	}
	requireRule(t, Check(h), "priority")
	if vs := CheckQuiescent(h); len(vs) != 0 {
		t.Fatalf("quiescent check flagged busy-period reorder: %v", vs)
	}
}

func TestQuiescentViolationAcrossQuiescence(t *testing.T) {
	// The better item was inserted in an earlier busy period — fully
	// settled — so even quiescent consistency requires the delete to beat
	// it. The same history must also flag emptiness for a dry report.
	h := []Op{
		{Kind: Insert, Pri: 0, Val: 1, OK: true, Start: 0, End: 1},
		// quiescent point
		{Kind: Insert, Pri: 5, Val: 2, OK: true, Start: 10, End: 11},
		// quiescent point
		{Kind: DeleteMin, Pri: 5, Val: 2, OK: true, Start: 20, End: 21},
		{Kind: DeleteMin, OK: false, Start: 30, End: 31},
	}
	vs := CheckQuiescent(h)
	requireRule(t, vs, "priority")
	requireRule(t, vs, "emptiness")
}

func TestQuiescentToleratesBorrowedCounterUnit(t *testing.T) {
	// The two histories a counter tree produces that no sequential order
	// of the busy period explains. Item 1 (pri 2) and item 2 (pri 4) are
	// settled. Late increment: item 3's insert has filled its bin but not
	// yet reached the root counter when the first delete spends item 1's
	// unit on item 3; the root reads zero and the second delete walks
	// past item 1. Held unit: a slow delete takes item 1's unit, the fast
	// delete finds the root at zero, and the slow one ends up at item 3,
	// inserted after the fast delete returned.
	settled := []Op{
		{Kind: Insert, Pri: 2, Val: 1, OK: true, Start: 0, End: 1},
		{Kind: Insert, Pri: 4, Val: 2, OK: true, Start: 2, End: 3},
	}
	lateIncrement := append(settled[:2:2],
		Op{Kind: Insert, Pri: 1, Val: 3, OK: true, Start: 10, End: 20},
		Op{Kind: DeleteMin, Pri: 1, Val: 3, OK: true, Start: 11, End: 13},
		Op{Kind: DeleteMin, Pri: 4, Val: 2, OK: true, Start: 14, End: 16},
	)
	heldUnit := append(settled[:2:2],
		Op{Kind: DeleteMin, Pri: 1, Val: 3, OK: true, Start: 10, End: 30},
		Op{Kind: DeleteMin, Pri: 4, Val: 2, OK: true, Start: 12, End: 14},
		Op{Kind: Insert, Pri: 1, Val: 3, OK: true, Start: 20, End: 22},
	)
	for name, h := range map[string][]Op{"late increment": lateIncrement, "held unit": heldUnit} {
		requireRule(t, Check(h), "priority")
		if vs := CheckQuiescent(h); len(vs) != 0 {
			t.Errorf("%s: quiescent check flagged a borrowed counter unit: %v", name, vs)
		}
	}
}

func TestQuiescentOverlapExcusesOnlyBetterAndConcurrent(t *testing.T) {
	// The allowance must not swallow genuine misordering: an overlapping
	// operation on a worse item cannot have borrowed the settled item's
	// unit, a better insert that finished before the delete began has
	// already booked its own, and one overlapping operation excuses one
	// settled item, not two.
	settled := []Op{
		{Kind: Insert, Pri: 0, Val: 1, OK: true, Start: 0, End: 1},
		{Kind: Insert, Pri: 5, Val: 2, OK: true, Start: 2, End: 3},
	}
	worseOverlap := append(settled[:2:2],
		Op{Kind: Insert, Pri: 7, Val: 3, OK: true, Start: 10, End: 20},
		Op{Kind: DeleteMin, Pri: 5, Val: 2, OK: true, Start: 12, End: 14},
	)
	requireRule(t, CheckQuiescent(worseOverlap), "priority")

	betterButEarlier := append(settled[:2:2],
		Op{Kind: Insert, Pri: 1, Val: 3, OK: true, Start: 10, End: 12},
		Op{Kind: Insert, Pri: 7, Val: 4, OK: true, Start: 11, End: 30}, // chains the busy period
		Op{Kind: DeleteMin, Pri: 5, Val: 2, OK: true, Start: 20, End: 25},
	)
	requireRule(t, CheckQuiescent(betterButEarlier), "priority")

	twoSettledOneExcuse := append(settled[:2:2],
		Op{Kind: Insert, Pri: 0, Val: 5, OK: true, Start: 4, End: 5},
		Op{Kind: Insert, Pri: 1, Val: 3, OK: true, Start: 10, End: 20},
		Op{Kind: DeleteMin, Pri: 5, Val: 2, OK: true, Start: 12, End: 14},
	)
	requireRule(t, CheckQuiescent(twoSettledOneExcuse), "priority")

	dry := append(settled[:2:2],
		Op{Kind: Insert, Pri: 7, Val: 3, OK: true, Start: 10, End: 12},
		Op{Kind: DeleteMin, OK: false, Start: 20, End: 21},
	)
	requireRule(t, CheckQuiescent(dry), "emptiness")
}

func TestQuiescentIgnoresBatchRules(t *testing.T) {
	// A quiescently consistent queue may interleave a batch with
	// overlapping ops, so decreasing priorities within a batch are legal
	// there — but not under Check.
	h := []Op{
		{Kind: Insert, Pri: 1, Val: 1, OK: true, Start: 0, End: 9},
		{Kind: Insert, Pri: 4, Val: 2, OK: true, Start: 0, End: 9},
		{Kind: DeleteMin, Pri: 4, Val: 2, OK: true, Start: 1, End: 8, Batch: 3},
		{Kind: DeleteMin, Pri: 1, Val: 1, OK: true, Start: 1, End: 8, Batch: 3},
	}
	requireRule(t, Check(h), "batch-order")
	if vs := CheckQuiescent(h); len(vs) != 0 {
		t.Fatalf("quiescent check applied batch rules: %v", vs)
	}
}

func TestBatchZeroIdsNeverGrouped(t *testing.T) {
	// Batch id zero means unbatched: wildly different intervals and kinds
	// must not be grouped.
	h := []Op{
		{Kind: Insert, Pri: 2, Val: 1, OK: true, Start: 0, End: 1},
		{Kind: DeleteMin, Pri: 2, Val: 1, OK: true, Start: 5, End: 6},
	}
	if vs := Check(h); len(vs) != 0 {
		t.Fatalf("unbatched ops grouped: %v", vs)
	}
}
