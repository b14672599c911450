package funnel

import (
	"testing"
	"testing/quick"
)

func TestResultEncodingRoundTrip(t *testing.T) {
	f := func(value uint64, elim, fail bool) bool {
		value &= resValue
		enc := encodeResult(elim, fail, value)
		if enc == 0 {
			return false // must be distinguishable from "no result yet"
		}
		gotElim := enc&resElim != 0
		gotFail := enc&resFail != 0
		gotVal := enc & resValue
		return gotElim == elim && gotFail == fail && gotVal == value
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestCounterAddRespectsBounds checks that Add, like AddN and SubN,
// moves a bounded counter only by the part of its delta that fits, on
// both protocols, and that Add(0) returns the value.
func TestCounterAddRespectsBounds(t *testing.T) {
	forEachProtocol(t, 4, func(t *testing.T, params Params) {
		steps := []struct {
			c               *Counter
			delta, ret, val int64
		}{
			{NewCounterBounds(params, 0, 0, 10), 100, 0, 10},
			{NewCounterBounds(params, 10, 0, 10), -100, 10, 0},
			{NewCounter(params, 5, true, 0), -100, 5, 0},
			{NewCounter(params, 5, true, 0), 3, 5, 8},
			{NewCounterBounds(params, 7, 0, 10), 0, 7, 7},
			{NewCounter(params, -3, false, 0), -100, -3, -103},
		}
		for i, s := range steps {
			if got := s.c.Add(s.delta); got != s.ret {
				t.Errorf("step %d: Add(%d) = %d, want %d", i, s.delta, got, s.ret)
			}
			if got := s.c.Value(); got != s.val {
				t.Errorf("step %d: after Add(%d) Value = %d, want %d", i, s.delta, got, s.val)
			}
		}
	})
}
