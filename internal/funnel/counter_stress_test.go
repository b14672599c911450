package funnel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// forEachProtocol runs body as one subtest per funnel protocol at
// concurrency p: the adaptive default, whose operations try the central
// object once before they enter the layers, and the paper's always-funnel
// protocol (Adaptive off), which keeps combining and elimination covered
// on hosts where the central object is rarely busy.
func forEachProtocol(t *testing.T, p int, body func(t *testing.T, params Params)) {
	alwaysFunnel := DefaultParams(p)
	alwaysFunnel.Adaptive = false
	for _, tc := range []struct {
		name   string
		params Params
	}{
		{"central-first", DefaultParams(p)},
		{"always-funnel", alwaysFunnel},
	} {
		t.Run(tc.name, func(t *testing.T) { body(t, tc.params) })
	}
}

// TestCounterBoundedStress hammers a bounded counter with asymmetric
// decrementer/incrementer populations (the admission-semaphore shape
// pqd uses) and checks, under -race, that:
//
//   - the central value never crosses the lower bound,
//   - every operation's return is consistent with bounded semantics
//     (a decrement returning the bound means "not decremented"), and
//   - at quiescence the value equals initial + effective increments -
//     effective decrements, i.e. eliminated pairs balanced exactly.
func TestCounterBoundedStress(t *testing.T) {
	const (
		lower   = int64(0)
		initial = int64(4)
		perG    = 3000
	)
	decrementers := 6
	incrementers := 3
	if testing.Short() {
		decrementers, incrementers = 3, 2
	}
	forEachProtocol(t, decrementers+incrementers, func(t *testing.T, params Params) {
		c := NewCounter(params, initial, true, lower)

		var (
			wg        sync.WaitGroup
			decs      atomic.Int64 // decrements that took effect
			failsDecs atomic.Int64 // decrements refused at the bound
			incs      atomic.Int64
		)
		for g := 0; g < decrementers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					prev := c.FaD()
					if prev < lower {
						t.Errorf("FaD observed value %d below bound %d", prev, lower)
						return
					}
					if prev == lower {
						failsDecs.Add(1)
					} else {
						decs.Add(1)
					}
					if i%64 == 0 {
						runtime.Gosched()
					}
				}
			}()
		}
		for g := 0; g < incrementers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					if prev := c.FaI(); prev < lower {
						t.Errorf("FaI observed value %d below bound %d", prev, lower)
						return
					}
					incs.Add(1)
					if i%64 == 0 {
						runtime.Gosched()
					}
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}

		if v := c.Value(); v < lower {
			t.Fatalf("final value %d below bound %d", v, lower)
		}
		// Conservation at quiescence: eliminated increment/decrement pairs
		// must have balanced — each pair reports one effective increment
		// and one effective decrement, netting zero — so the central value
		// is exactly initial + incs - decs.
		want := initial + incs.Load() - decs.Load()
		if got := c.Value(); got != want {
			t.Fatalf("final value %d, want initial(%d) + incs(%d) - decs(%d) = %d; refused decs = %d",
				got, initial, incs.Load(), decs.Load(), want, failsDecs.Load())
		}
		if incs.Load() != int64(incrementers*perG) {
			t.Fatalf("lost increments: %d of %d", incs.Load(), incrementers*perG)
		}
		if decs.Load()+failsDecs.Load() != int64(decrementers*perG) {
			t.Fatalf("lost decrements: %d+%d of %d", decs.Load(), failsDecs.Load(), decrementers*perG)
		}
	})
}

// TestCounterMultiUnitLowerBoundStress mixes multi-unit AddN/SubN with
// unit FaI/FaD against a lower bound. Multi-unit trees cannot eliminate
// (only all-unit trees pair off exactly), so mixed-sign collisions here
// drive the incompatible-capture path: the capturer applies the captured
// tree centrally on its behalf. The value must never undershoot the
// bound and conservation must hold at quiescence, with each op's
// effective amount derived from its returned prev per the clamped
// min(n, prev-lower) / plain-add semantics.
func TestCounterMultiUnitLowerBoundStress(t *testing.T) {
	const (
		lower   = int64(0)
		initial = int64(8)
		perG    = 2000
	)
	adders := 3
	subbers := 5
	if testing.Short() {
		adders, subbers = 2, 3
	}
	forEachProtocol(t, adders+subbers, func(t *testing.T, params Params) {
		c := NewCounter(params, initial, true, lower)

		var (
			wg    sync.WaitGroup
			added atomic.Int64 // effective amount added
			taken atomic.Int64 // effective amount subtracted
		)
		for g := 0; g < adders; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					n := int64(i%5 + 1)
					var prev int64
					if n == 1 {
						prev = c.FaI()
					} else {
						prev = c.AddN(n)
					}
					if prev < lower {
						t.Errorf("AddN(%d) observed value %d below bound %d", n, prev, lower)
						return
					}
					added.Add(n) // lower-bounded counter never clamps additions
					if i%64 == 0 {
						runtime.Gosched()
					}
				}
			}(g)
		}
		for g := 0; g < subbers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					n := int64((i+g)%5 + 1)
					var prev int64
					if n == 1 {
						prev = c.FaD()
					} else {
						prev = c.SubN(n)
					}
					if prev < lower {
						t.Errorf("SubN(%d) observed value %d below bound %d", n, prev, lower)
						return
					}
					if eff := prev - lower; eff < n {
						taken.Add(eff)
					} else {
						taken.Add(n)
					}
					if i%64 == 0 {
						runtime.Gosched()
					}
				}
			}(g)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}

		got := c.Value()
		if got < lower {
			t.Fatalf("final value %d below bound %d", got, lower)
		}
		if want := initial + added.Load() - taken.Load(); got != want {
			t.Fatalf("final value %d, want initial(%d) + added(%d) - taken(%d) = %d",
				got, initial, added.Load(), taken.Load(), want)
		}
	})
}

// TestCounterMultiUnitUpperBoundStress mirrors the multi-unit stress
// against an upper bound: AddN clamps to min(n, upper-prev) while SubN
// clamps at the lower bound, and the value must stay inside [0, upper]
// throughout with exact books at quiescence.
func TestCounterMultiUnitUpperBoundStress(t *testing.T) {
	const (
		upper = int64(24)
		perG  = 2000
	)
	adders := 5
	subbers := 3
	if testing.Short() {
		adders, subbers = 3, 2
	}
	forEachProtocol(t, adders+subbers, func(t *testing.T, params Params) {
		c := NewCounterBounds(params, 0, 0, upper)

		var (
			wg    sync.WaitGroup
			added atomic.Int64
			taken atomic.Int64
		)
		for g := 0; g < adders; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					n := int64((i+g)%5 + 1)
					prev := c.AddN(n)
					if prev > upper || prev < 0 {
						t.Errorf("AddN(%d) observed value %d outside [0,%d]", n, prev, upper)
						return
					}
					if eff := upper - prev; eff < n {
						added.Add(eff)
					} else {
						added.Add(n)
					}
				}
			}(g)
		}
		for g := 0; g < subbers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					n := int64(i%5 + 1)
					prev := c.SubN(n)
					if prev > upper || prev < 0 {
						t.Errorf("SubN(%d) observed value %d outside [0,%d]", n, prev, upper)
						return
					}
					if eff := prev; eff < n {
						taken.Add(eff)
					} else {
						taken.Add(n)
					}
				}
			}(g)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}

		got := c.Value()
		if got < 0 || got > upper {
			t.Fatalf("final value %d outside [0,%d]", got, upper)
		}
		if want := added.Load() - taken.Load(); got != want {
			t.Fatalf("final value %d, want added(%d) - taken(%d) = %d", got, added.Load(), taken.Load(), want)
		}
	})
}

// TestCounterUpperBoundStress is the mirrored admission-control case:
// BFaI against an upper bound with concurrent FaD, as pqd's admission
// semaphore runs it. The value must never exceed the upper bound and
// conservation must hold at quiescence.
func TestCounterUpperBoundStress(t *testing.T) {
	const (
		upper = int64(16)
		perG  = 3000
	)
	incrementers := 6
	decrementers := 3
	if testing.Short() {
		incrementers, decrementers = 3, 2
	}
	forEachProtocol(t, incrementers+decrementers, func(t *testing.T, params Params) {
		c := NewCounterBounds(params, 0, 0, upper)

		var (
			wg   sync.WaitGroup
			incs atomic.Int64
			decs atomic.Int64
		)
		for g := 0; g < incrementers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					prev := c.BFaI()
					if prev > upper {
						t.Errorf("BFaI observed value %d above bound %d", prev, upper)
						return
					}
					if prev < upper {
						incs.Add(1)
					}
				}
			}()
		}
		for g := 0; g < decrementers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					prev := c.FaD()
					if prev < 0 {
						t.Errorf("FaD observed value %d below bound 0", prev)
						return
					}
					if prev > 0 {
						decs.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}

		got := c.Value()
		if got < 0 || got > upper {
			t.Fatalf("final value %d outside [0,%d]", got, upper)
		}
		if want := incs.Load() - decs.Load(); got != want {
			t.Fatalf("final value %d, want incs(%d) - decs(%d) = %d", got, incs.Load(), decs.Load(), want)
		}
	})
}
