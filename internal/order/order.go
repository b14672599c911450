// Package order checks concurrent priority-queue histories against
// necessary conditions for linearizability. Full linearizability checking
// of priority queues is intractable in general; this checker verifies a
// sound subset — any violation it reports is a real one, while some
// violations may go undetected:
//
//  1. Uniqueness: every successful DeleteMin returns a value inserted
//     exactly once and never returned twice.
//  2. Precedence: a value cannot be returned by a DeleteMin that finished
//     before the value's Insert began.
//  3. Priority: if a DeleteMin D returns priority p, no value with a
//     strictly smaller priority can have been definitely present for D's
//     whole window — inserted before D began and not removed by any
//     DeleteMin that began before D ended.
//  4. Emptiness: a failed DeleteMin D is a violation if some value was
//     definitely present for D's whole window.
//
// Timestamps must come from a single monotonic source (the simulator's
// cycle clock, or host time under careful use).
//
// Histories truncated by processor crashes are checked with
// CheckTruncated: operations that were in flight when their processor
// died are passed as PendingOps and treated as possibly linearized, so
// safety for the surviving processors can still be proved.
//
// Batch operations record one Op per sub-operation, sharing a nonzero
// Op.Batch id; Check additionally enforces that a batch is internally
// consistent ("batch") and that a delete batch looks like sequential
// deletes ("batch-order"). Quiescently consistent implementations — the
// funnel-based queues and the counter trees — are checked with
// CheckQuiescent, which relaxes the conditions to busy-period granularity.
//
// Relaxed queues (the MultiQueue family), whose DeleteMin is only
// approximately smallest-first, are checked with CheckRelaxed: the
// priority rule becomes a configurable rank-error bound while
// uniqueness, precedence and emptiness stay exact.
package order

import (
	"fmt"
	"sort"
)

// Kind distinguishes history events.
type Kind uint8

// Event kinds.
const (
	Insert Kind = iota + 1
	DeleteMin
)

// Op is one completed operation in a history.
type Op struct {
	Kind Kind
	// Pri is the item's priority (for DeleteMin, of the returned item;
	// ignored for failed deletes).
	Pri int
	// Val identifies the item; values must be unique across Inserts.
	Val uint64
	// OK is false for a DeleteMin that reported an empty queue.
	OK bool
	// Start and End bound the operation's execution interval, Start < End.
	Start, End int64
	// Batch groups the sub-operations of one batch call: all ops sharing
	// a nonzero Batch id belong to one InsertBatch or DeleteMinBatch
	// invocation, must share Kind and execution interval, and their slice
	// order in the history is the order the call produced them. Zero means
	// not batched.
	Batch uint64
}

// Violation describes a detected inconsistency.
type Violation struct {
	// Rule names the violated condition.
	Rule string
	// Detail is a human-readable explanation.
	Detail string
}

func (v Violation) Error() string { return v.Rule + ": " + v.Detail }

// PendingOp is an operation that had started but never completed — its
// processor crashed (or the run was aborted) mid-operation. A pending
// operation may or may not have taken effect, so the checker treats it
// as possibly linearized at any point from Start onward:
//
//   - a pending Insert's value may legitimately be returned by a
//     completed DeleteMin (it is not an "alien" value), but it cannot
//     serve as a witness that the queue was non-empty;
//   - each pending DeleteMin may have silently consumed one value, so a
//     value only counts as "definitely present" when there are more
//     such values than pending deletes that could have taken them.
type PendingOp struct {
	Kind Kind
	// Pri and Val describe a pending Insert; they are ignored for a
	// pending DeleteMin (whose would-be return value is unknowable).
	Pri int
	Val uint64
	// Start is when the operation began.
	Start int64
}

// Check verifies a complete history and returns all detected violations.
func Check(history []Op) []Violation {
	return CheckTruncated(history, nil)
}

// CheckTruncated verifies a crash-truncated history: ops completed by
// surviving (or crashed-later) processors, plus the operations that were
// in flight when their processors died. Violations are still sound —
// every report is a real inconsistency under every possible linearization
// of the pending operations.
func CheckTruncated(history []Op, pending []PendingOp) []Violation {
	out := checkBatches(history, true)
	return append(out, checkCore(history, pending, 0, nil)...)
}

// CheckQuiescent verifies a history against the guarantee of the
// funnel-based queues and the counter trees: overlapping operations may
// reorder freely, but between quiescent points (instants with no
// operation in flight) the queue behaves like a sequential one. It widens
// every operation's interval to the envelope of its busy period — the
// maximal run of transitively overlapping operations — and then applies
// the same necessary conditions as Check: an item settled before a busy
// period and left behind by it must still beat a worse delete, and
// emptiness cannot be reported while it sits there.
//
// One allowance keeps that sound for the counter trees (SimpleTree,
// FunnelTree), which are not quiescently consistent in the textbook
// sense. A tree counter holds one unit per item below it, but units are
// anonymous: a delete can spend the unit a settled item booked on an item
// whose own insert has not reached that counter yet, or hold it while it
// walks down to an item inserted later. Until the late increment lands
// the counter reads one short, and a second delete passes the settled
// item by — a history no sequential order of the busy period explains.
// The shortfall at a counter never exceeds the inserts and deletes in
// flight below it, so each operation that overlaps the delete in real
// time and inserted or returned an item better than the delete's own
// excuses one settled item; a delete is reported only when more settled
// items beat it than that. Batch sub-operations may legally interleave
// with overlapping operations, so the batch rules are not applied.
func CheckQuiescent(history []Op) []Violation {
	if len(history) == 0 {
		return nil
	}
	idx := make([]int, len(history))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return history[idx[a]].Start < history[idx[b]].Start })
	widened := make([]Op, len(history))
	copy(widened, history)
	for i := 0; i < len(idx); {
		start := history[idx[i]].Start
		end := history[idx[i]].End
		j := i + 1
		for j < len(idx) && history[idx[j]].Start < end {
			if e := history[idx[j]].End; e > end {
				end = e
			}
			j++
		}
		for k := i; k < j; k++ {
			widened[idx[k]].Start = start
			widened[idx[k]].End = end
			widened[idx[k]].Batch = 0
		}
		i = j
	}
	return checkCore(widened, nil, 0, history)
}

// checkBatches verifies the batch conditions: sub-operations sharing a
// batch id must agree on kind and interval ("batch"), and a delete batch
// must behave like sequential deletes — no success after it reported dry
// and, when strictOrder is set, nondecreasing priorities in production
// order ("batch-order"). Relaxed queues drop the monotonicity clause:
// their batch is k relaxed pops, each free to overtake within its rank
// bound.
func checkBatches(history []Op, strictOrder bool) []Violation {
	var out []Violation
	type group struct {
		kind       Kind
		start, end int64
		ops        []*Op
	}
	groups := map[uint64]*group{}
	var order []uint64 // first-seen order keeps reports deterministic
	for i := range history {
		op := &history[i]
		if op.Batch == 0 {
			continue
		}
		g, ok := groups[op.Batch]
		if !ok {
			g = &group{kind: op.Kind, start: op.Start, end: op.End}
			groups[op.Batch] = g
			order = append(order, op.Batch)
		}
		if op.Kind != g.kind || op.Start != g.start || op.End != g.end {
			out = append(out, Violation{
				Rule: "batch",
				Detail: fmt.Sprintf("batch %d: operation %+v disagrees with the batch's kind %d or interval [%d,%d]",
					op.Batch, *op, g.kind, g.start, g.end),
			})
		}
		g.ops = append(g.ops, op)
	}
	for _, id := range order {
		g := groups[id]
		if g.kind != DeleteMin {
			continue
		}
		lastPri := int(-1) << 62
		dry := false
		for _, op := range g.ops {
			if !op.OK {
				dry = true
				continue
			}
			if dry {
				out = append(out, Violation{
					Rule: "batch-order",
					Detail: fmt.Sprintf("batch %d: delete returned value %#x after the batch reported dry",
						id, op.Val),
				})
			}
			if strictOrder && op.Pri < lastPri {
				out = append(out, Violation{
					Rule: "batch-order",
					Detail: fmt.Sprintf("batch %d: priority %d returned after priority %d",
						id, op.Pri, lastPri),
				})
			}
			lastPri = op.Pri
		}
	}
	return out
}

// checkCore applies the interval-based necessary conditions shared by all
// checking modes. maxRank 0 is the strict priority rule; a positive
// maxRank relaxes it to the rank-error rule: a successful delete may
// overtake up to maxRank definitely-present better items. A non-nil real
// is history with its unwidened intervals and turns on CheckQuiescent's
// allowance for overlapping operations.
func checkCore(history []Op, pending []PendingOp, maxRank int, real []Op) []Violation {
	var out []Violation

	pendingInserts := map[uint64]*PendingOp{}
	var pendingDeletes []*PendingOp
	for i := range pending {
		po := &pending[i]
		switch po.Kind {
		case Insert:
			pendingInserts[po.Val] = po
		case DeleteMin:
			pendingDeletes = append(pendingDeletes, po)
		}
	}

	inserts := map[uint64]*Op{}
	removes := map[uint64]*Op{}
	for i := range history {
		op := &history[i]
		if op.Start > op.End {
			out = append(out, Violation{
				Rule:   "well-formed",
				Detail: fmt.Sprintf("operation %+v has Start > End", *op),
			})
		}
		switch op.Kind {
		case Insert:
			if prev, dup := inserts[op.Val]; dup {
				out = append(out, Violation{
					Rule:   "uniqueness",
					Detail: fmt.Sprintf("value %#x inserted twice (%+v and %+v)", op.Val, *prev, *op),
				})
				continue
			}
			inserts[op.Val] = op
		case DeleteMin:
			if !op.OK {
				continue
			}
			if prev, dup := removes[op.Val]; dup {
				out = append(out, Violation{
					Rule:   "uniqueness",
					Detail: fmt.Sprintf("value %#x returned twice (%+v and %+v)", op.Val, *prev, *op),
				})
				continue
			}
			removes[op.Val] = op
		}
	}

	// Precedence and alien values. A value whose Insert was pending at a
	// crash may have linearized, so returning it is legal — but only
	// after the pending Insert began.
	for val, del := range removes {
		ins, ok := inserts[val]
		if !ok {
			if pi, wasPending := pendingInserts[val]; wasPending {
				if del.End < pi.Start {
					out = append(out, Violation{
						Rule: "precedence",
						Detail: fmt.Sprintf("value %#x returned by a delete ending at %d before its crashed insert began at %d",
							val, del.End, pi.Start),
					})
				}
				continue
			}
			out = append(out, Violation{
				Rule:   "uniqueness",
				Detail: fmt.Sprintf("value %#x returned but never inserted", val),
			})
			continue
		}
		if del.End < ins.Start {
			out = append(out, Violation{
				Rule: "precedence",
				Detail: fmt.Sprintf("value %#x returned by a delete ending at %d before its insert began at %d",
					val, del.End, ins.Start),
			})
		}
	}

	// Priority and emptiness conditions, O(deletes × inserts). "Definitely
	// present during D" means: insert completed before D started, and no
	// successful delete of the value began before D ended.
	var deletes []int
	for i := range history {
		if history[i].Kind == DeleteMin {
			deletes = append(deletes, i)
		}
	}
	sort.Slice(deletes, func(i, j int) bool { return history[deletes[i]].Start < history[deletes[j]].Start })

	for _, di := range deletes {
		d := &history[di]
		limit := 1 << 62 // priority the delete must beat
		if d.OK {
			limit = d.Pri
		}
		// Each pending DeleteMin that began before D ended may have
		// linearized inside D's window and consumed one witness, so a
		// violation needs strictly more witnesses than such deletes.
		excused := 0
		for _, pd := range pendingDeletes {
			if pd.Start <= d.End {
				excused++
			}
		}
		witnesses := 0
		var witVal uint64
		var witIns *Op
		for val, ins := range inserts {
			if ins.Pri >= limit && d.OK {
				continue
			}
			if ins.End >= d.Start {
				continue // not definitely present before D
			}
			if rem, ok := removes[val]; ok && rem.Start <= d.End && rem != d {
				continue // may have been taken by an overlapping delete
			}
			if d.OK && val == d.Val {
				continue
			}
			if witnesses == 0 {
				witVal, witIns = val, ins
			}
			witnesses++
		}
		allowed := excused
		if d.OK {
			allowed += maxRank
		}
		if witnesses > allowed && real != nil {
			allowed += overlappingBetter(real, di, limit)
		}
		if witnesses <= allowed {
			continue
		}
		// One witness per delete keeps reports readable.
		if d.OK && maxRank > 0 {
			out = append(out, Violation{
				Rule: "rank-error",
				Detail: fmt.Sprintf("delete [%d,%d] returned pri %d with %d definitely-present better items (bound %d), e.g. value %#x (pri %d)",
					d.Start, d.End, d.Pri, witnesses, maxRank, witVal, witIns.Pri),
			})
		} else if d.OK {
			out = append(out, Violation{
				Rule: "priority",
				Detail: fmt.Sprintf("delete [%d,%d] returned pri %d but value %#x (pri %d) was definitely present",
					d.Start, d.End, d.Pri, witVal, witIns.Pri),
			})
		} else {
			out = append(out, Violation{
				Rule: "emptiness",
				Detail: fmt.Sprintf("delete [%d,%d] reported empty but value %#x (pri %d) was definitely present",
					d.Start, d.End, witVal, witIns.Pri),
			})
		}
	}
	return out
}

// overlappingBetter counts the operations other than delete di whose
// interval overlaps its own and that inserted or returned an item of
// priority better than limit.
func overlappingBetter(history []Op, di, limit int) int {
	d := &history[di]
	n := 0
	for i := range history {
		o := &history[i]
		if i != di && (o.Kind == Insert || o.OK) && o.Pri < limit && o.Start <= d.End && o.End >= d.Start {
			n++
		}
	}
	return n
}
