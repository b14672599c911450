package sim

import (
	"math/rand"
	"testing"
)

// TestEventWheelMatchesHeap drives the wheel and an eventHeap with the same
// seeded pushes and pops and requires the same pop sequence, event for
// event. Delays run from 0 (many equal times) to 4× the window, so events
// cross the overflow boundary, and the queue drains now and then, so pop
// jumps long empty stretches.
func TestEventWheelMatchesHeap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var w eventWheel
		var h eventHeap
		var now int64
		var seq uint64
		delay := func() int64 {
			switch r := rng.Intn(10); {
			case r < 3:
				return 0
			case r < 7:
				return rng.Int63n(300)
			case r < 9:
				return rng.Int63n(4 * wheelSize)
			default:
				return wheelSize - 1 + rng.Int63n(3) // the window's edge
			}
		}
		for step := 0; step < 20000; step++ {
			if h.len() == 0 || rng.Intn(100) < 52 {
				seq++
				e := event{time: now + delay(), seq: seq, val: rng.Uint64(), proc: int32(rng.Intn(256)), kind: uint8(rng.Intn(2))}
				w.push(e)
				h.push(e)
				continue
			}
			// Now and then drain down to a few far-off events.
			pops := 1
			if rng.Intn(500) == 0 {
				pops = h.len()
			}
			for range pops {
				want, got := h.pop(), w.pop()
				if got != want {
					t.Fatalf("seed %d step %d: wheel popped %+v, heap %+v", seed, step, got, want)
				}
				now = want.time
			}
			if w.len() != h.len() {
				t.Fatalf("seed %d step %d: wheel holds %d events, heap %d", seed, step, w.len(), h.len())
			}
		}
		for h.len() > 0 {
			if want, got := h.pop(), w.pop(); got != want {
				t.Fatalf("seed %d drain: wheel popped %+v, heap %+v", seed, got, want)
			}
		}
		if w.len() != 0 {
			t.Fatalf("seed %d: wheel holds %d events after the heap drained", seed, w.len())
		}
	}
}

func TestEventWheelRejectsPastPush(t *testing.T) {
	var w eventWheel
	w.push(event{time: 5000, seq: 1})
	w.push(event{time: 5001, seq: 2})
	if e := w.pop(); e.time != 5000 {
		t.Fatalf("popped time %d, want 5000", e.time)
	}
	w.push(event{time: 5000, seq: 3}) // the cursor's own cycle is allowed
	defer func() {
		if recover() == nil {
			t.Fatal("push before the cursor did not panic")
		}
	}()
	w.push(event{time: 4999, seq: 4})
}
