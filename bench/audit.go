package main

import (
	"fmt"

	"pq/internal/order"
)

// auditResult is the correctness verdict of one run: how many checks
// failed, and why, in words.
type auditResult struct {
	failed   int64
	problems []string
}

func (a *auditResult) fail(n int64, format string, args ...any) {
	a.failed += max(n, 1)
	a.problems = append(a.problems, fmt.Sprintf(format, args...))
}

// exactlyOnce compares everything acknowledged with everything delivered
// (during the run and by the final drain): the bags must be equal.
func (a *auditResult) exactlyOnce(acked, delivered multiset) {
	switch {
	case acked.n > delivered.n:
		a.fail(int64(acked.n-delivered.n), "audit: %d acked items never delivered", acked.n-delivered.n)
	case acked.n < delivered.n:
		a.fail(int64(delivered.n-acked.n), "audit: %d more deliveries than acked items", delivered.n-acked.n)
	case acked != delivered:
		a.fail(1, "audit: %d acked and %d delivered items, but not the same items", acked.n, delivered.n)
	}
}

// probeOps is the length of the single-caller order probe.
const probeOps = 2000

// orderProbe drives one caller through a seeded insert/delete-min mix on
// an empty, quiescent queue, drains it, and checks the history with
// internal/order. With one caller every op is its own quiescent point, so
// even the quiescently consistent queues must pass the strict check.
func orderProbe(c caller, seed uint64) ([]order.Violation, error) {
	r := rng(mix64(seed ^ 0x70726f6265))
	var history []order.Op
	var now int64
	var seq uint64
	step := func(insert bool) (bool, error) {
		op := order.Op{Start: now, End: now + 1}
		now += 2
		if insert {
			pri := r.intn(priorities)
			id := makeID(probeCaller, seq, pri)
			seq++
			if err := c.insert(pri, id); err != nil {
				return false, err
			}
			op.Kind, op.Pri, op.Val, op.OK = order.Insert, pri, id, true
		} else {
			id, pri, ok, err := c.deleteMin()
			if err != nil {
				return false, err
			}
			op.Kind, op.Pri, op.Val, op.OK = order.DeleteMin, pri, id, ok
		}
		history = append(history, op)
		return op.OK, nil
	}
	for i := 0; i < probeOps; i++ {
		// Lean towards inserts so most delete-mins have several
		// priorities to choose between.
		if _, err := step(r.intn(5) < 3); err != nil {
			return nil, err
		}
	}
	for {
		ok, err := step(false)
		if err != nil {
			return nil, err
		}
		if !ok {
			return order.Check(history), nil
		}
	}
}
