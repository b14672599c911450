package simpq

import (
	"testing"

	"pq/internal/sim"
)

func testParams() FunnelParams {
	return FunnelParams{
		Widths:   []int{4, 2},
		Attempts: 3,
		Spin:     []int64{60, 60},
		Adaptive: true,
	}
}

func TestFunnelCounterSequentialFaI(t *testing.T) {
	var c *FunnelCounter
	runOn(t, 1,
		func(m *sim.Machine) { c = NewFunnelCounter(m, testParams(), false, 0) },
		func(p *sim.Proc) {
			for i := uint64(0); i < 20; i++ {
				if got := c.FaI(p); got != i {
					t.Fatalf("FaI #%d = %d", i, got)
				}
			}
			if got := c.Value(p); got != 20 {
				t.Fatalf("Value = %d, want 20", got)
			}
		})
}

func TestFunnelCounterSequentialBFaD(t *testing.T) {
	var c *FunnelCounter
	runOn(t, 1,
		func(m *sim.Machine) { c = NewFunnelCounter(m, testParams(), true, 0) },
		func(p *sim.Proc) {
			for i := 0; i < 3; i++ {
				c.FaI(p)
			}
			// Three successful decrements, then pinned at the bound.
			for want := uint64(3); want > 0; want-- {
				if got := c.BFaD(p); got != want {
					t.Fatalf("BFaD = %d, want %d", got, want)
				}
			}
			for i := 0; i < 4; i++ {
				if got := c.BFaD(p); got != 0 {
					t.Fatalf("BFaD on empty = %d, want 0", got)
				}
			}
			if got := c.Value(p); got != 0 {
				t.Fatalf("Value = %d, want 0", got)
			}
		})
}

func TestFunnelCounterConcurrentFaIPermutation(t *testing.T) {
	// P processors each increment k times; the returns must form a
	// permutation of 0..P*k-1 and the final value must be P*k. This is
	// exactness of combining distribution.
	const procs = 32
	const perProc = 15
	var c *FunnelCounter
	var m *sim.Machine
	returns := make([][]uint64, procs)
	runOn(t, procs,
		func(mm *sim.Machine) {
			m = mm
			c = NewFunnelCounter(mm, DefaultFunnelParams(procs), false, 0)
		},
		func(p *sim.Proc) {
			for i := 0; i < perProc; i++ {
				returns[p.ID()] = append(returns[p.ID()], c.FaI(p))
				p.LocalWork(int64(p.Rand(50)))
			}
		})
	if got := m.Word(c.main); got != procs*perProc {
		t.Fatalf("final value = %d, want %d", got, procs*perProc)
	}
	seen := make([]bool, procs*perProc)
	for _, rs := range returns {
		for _, v := range rs {
			if v >= uint64(len(seen)) {
				t.Fatalf("return %d out of range", v)
			}
			if seen[v] {
				t.Fatalf("duplicate return %d", v)
			}
			seen[v] = true
		}
	}
}

func TestFunnelCounterUnboundedGoesNegative(t *testing.T) {
	// An unbounded counter decremented from 0 must return exactly
	// 0, -1, ..., -(P*k-1) and end at -P*k: negative values delivered
	// through a result word come back as themselves, like those
	// applied at the central word.
	const procs = 32
	const perProc = 5
	var c *FunnelCounter
	var m *sim.Machine
	returns := make([][]int64, procs)
	runOn(t, procs,
		func(mm *sim.Machine) {
			m = mm
			c = NewFunnelCounter(mm, DefaultFunnelParams(procs), false, 0)
		},
		func(p *sim.Proc) {
			for i := 0; i < perProc; i++ {
				returns[p.ID()] = append(returns[p.ID()], int64(c.BFaD(p)))
				p.LocalWork(int64(p.Rand(50)))
			}
		})
	if got := int64(m.Word(c.main)); got != -procs*perProc {
		t.Fatalf("final value = %d, want %d", got, -procs*perProc)
	}
	seen := make([]bool, procs*perProc)
	for _, rs := range returns {
		for _, v := range rs {
			if v > 0 || -v >= int64(len(seen)) {
				t.Fatalf("return %d outside [%d, 0]", v, 1-len(seen))
			}
			if seen[-v] {
				t.Fatalf("duplicate return %d", v)
			}
			seen[-v] = true
		}
	}
}

func TestFunnelCounterBoundedHomogeneousFaI(t *testing.T) {
	// Same permutation property must hold in bounded mode (homogeneous
	// trees) when only increments run.
	const procs = 16
	const perProc = 12
	var c *FunnelCounter
	var m *sim.Machine
	returns := make([][]uint64, procs)
	runOn(t, procs,
		func(mm *sim.Machine) {
			m = mm
			c = NewFunnelCounter(mm, DefaultFunnelParams(procs), true, 0)
		},
		func(p *sim.Proc) {
			for i := 0; i < perProc; i++ {
				returns[p.ID()] = append(returns[p.ID()], c.FaI(p))
			}
		})
	if got := m.Word(c.main); got != procs*perProc {
		t.Fatalf("final value = %d, want %d", got, procs*perProc)
	}
	seen := make([]bool, procs*perProc)
	for _, rs := range returns {
		for _, v := range rs {
			if seen[v] {
				t.Fatalf("duplicate return %d", v)
			}
			seen[v] = true
		}
	}
}

func TestFunnelCounterMixedBoundedInvariant(t *testing.T) {
	// Mixed increments and bounded decrements with elimination: the final
	// central value must equal increments minus successful decrements
	// (those whose return exceeded the bound), and never dip below the
	// bound.
	const procs = 24
	const perProc = 16
	var c *FunnelCounter
	var m *sim.Machine
	type tally struct{ incs, succDecs int }
	tallies := make([]tally, procs)
	runOn(t, procs,
		func(mm *sim.Machine) {
			m = mm
			c = NewFunnelCounter(mm, DefaultFunnelParams(procs), true, 0)
		},
		func(p *sim.Proc) {
			id := p.ID()
			for i := 0; i < perProc; i++ {
				if p.Rand(2) == 0 {
					c.FaI(p)
					tallies[id].incs++
				} else if c.BFaD(p) > 0 {
					tallies[id].succDecs++
				}
				p.LocalWork(int64(p.Rand(30)))
			}
		})
	incs, succ := 0, 0
	for _, tl := range tallies {
		incs += tl.incs
		succ += tl.succDecs
	}
	final := int(m.Word(c.main))
	if final != incs-succ {
		t.Fatalf("final=%d, incs=%d, successful decs=%d (want final = incs-succ)", final, incs, succ)
	}
	if final < 0 {
		t.Fatalf("counter went below bound: %d", final)
	}
}

func TestFunnelStackSequential(t *testing.T) {
	var s *FunnelStack
	runOn(t, 1,
		func(m *sim.Machine) { s = NewFunnelStack(m, testParams(), 32) },
		func(p *sim.Proc) {
			if !s.Empty(p) {
				t.Error("new stack not empty")
			}
			if _, ok := s.Pop(p); ok {
				t.Error("Pop on empty stack succeeded")
			}
			for i := uint64(1); i <= 5; i++ {
				s.Push(p, i)
			}
			if s.Empty(p) {
				t.Error("stack with items reports empty")
			}
			// LIFO order when sequential.
			for want := uint64(5); want >= 1; want-- {
				v, ok := s.Pop(p)
				if !ok || v != want {
					t.Fatalf("Pop = (%d,%v), want (%d,true)", v, ok, want)
				}
			}
			if !s.Empty(p) {
				t.Error("drained stack not empty")
			}
		})
}

func TestFunnelStackConcurrentMultiset(t *testing.T) {
	const procs = 24
	const perProc = 14
	var (
		s   *FunnelStack
		bar *barrier
	)
	popped := make([][]uint64, procs)
	var drained []uint64
	runOn(t, procs,
		func(m *sim.Machine) {
			s = NewFunnelStack(m, DefaultFunnelParams(procs), procs*perProc+1)
			bar = newBarrier(m)
		},
		func(p *sim.Proc) {
			id := p.ID()
			for i := 0; i < perProc; i++ {
				if p.Rand(2) == 0 {
					s.Push(p, uint64(id)<<16|uint64(i)|1<<30)
				} else if v, ok := s.Pop(p); ok {
					popped[id] = append(popped[id], v)
				}
				p.LocalWork(int64(p.Rand(40)))
			}
			bar.wait(p, 1)
			if id == 0 {
				for {
					v, ok := s.Pop(p)
					if !ok {
						break
					}
					drained = append(drained, v)
				}
			}
		})
	if s.bin.dropped != 0 {
		t.Fatalf("stack dropped %d items", s.bin.dropped)
	}
	seen := map[uint64]int{}
	for _, vs := range popped {
		for _, v := range vs {
			seen[v]++
		}
	}
	for _, v := range drained {
		seen[v]++
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("value %#x seen %d times", v, n)
		}
		if v&(1<<30) == 0 {
			t.Fatalf("alien value %#x", v)
		}
	}
}

func TestFunnelStackEliminationOccurs(t *testing.T) {
	// Under a balanced push/pop load with many processors, at least some
	// operations should eliminate (pair off without touching the central
	// stack). We detect this indirectly: determinism plus a sanity check
	// that the run completes with a correct multiset is covered elsewhere;
	// here we check that pops succeed even when the central stack is kept
	// near-empty, which only elimination can sustain cheaply.
	const procs = 32
	var s *FunnelStack
	succ := make([]int, procs)
	runOn(t, procs,
		func(m *sim.Machine) { s = NewFunnelStack(m, DefaultFunnelParams(procs), 1024) },
		func(p *sim.Proc) {
			id := p.ID()
			for i := 0; i < 10; i++ {
				if id%2 == 0 {
					s.Push(p, uint64(id+1)<<8)
				} else if _, ok := s.Pop(p); ok {
					succ[id]++
				}
			}
		})
	total := 0
	for _, n := range succ {
		total += n
	}
	if total == 0 {
		t.Fatal("no pop ever succeeded under balanced load")
	}
}

func TestDefaultFunnelParamsScale(t *testing.T) {
	tests := []struct {
		procs      int
		wantLevels int
	}{
		{2, 1}, {4, 1}, {8, 2}, {32, 3}, {96, 4}, {128, 4}, {256, 5},
	}
	for _, tt := range tests {
		got := DefaultFunnelParams(tt.procs)
		if got.levels() != tt.wantLevels {
			t.Errorf("procs=%d levels=%d, want %d", tt.procs, got.levels(), tt.wantLevels)
		}
		for l, w := range got.Widths {
			if w < 1 {
				t.Errorf("procs=%d layer %d width %d < 1", tt.procs, l, w)
			}
		}
	}
}

func TestFunnelCounterDeterminism(t *testing.T) {
	run := func() uint64 {
		var c *FunnelCounter
		var m *sim.Machine
		var hash uint64
		runOn(t, 16,
			func(mm *sim.Machine) {
				m = mm
				c = NewFunnelCounter(mm, DefaultFunnelParams(16), true, 0)
			},
			func(p *sim.Proc) {
				for i := 0; i < 10; i++ {
					if p.Rand(2) == 0 {
						c.FaI(p)
					} else {
						c.BFaD(p)
					}
				}
			})
		hash = m.Word(c.main)
		return hash
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic funnel counter: %d vs %d", a, b)
	}
}

func TestFunnelCounterUpperBound(t *testing.T) {
	var c *FunnelCounter
	runOn(t, 1,
		func(m *sim.Machine) {
			c = NewFunnelCounterBounds(m, testParams(), 0, 3)
		},
		func(p *sim.Proc) {
			for want := uint64(0); want < 3; want++ {
				if got := c.BFaI(p); got != want {
					t.Fatalf("BFaI = %d, want %d", got, want)
				}
			}
			for i := 0; i < 3; i++ {
				if got := c.BFaI(p); got != 3 {
					t.Fatalf("BFaI at bound = %d, want 3", got)
				}
			}
			if got := c.Value(p); got != 3 {
				t.Fatalf("Value = %d, want 3", got)
			}
		})
}

func TestFunnelCounterTwoSidedConcurrent(t *testing.T) {
	const procs = 16
	const perProc = 20
	const hi = 12
	var c *FunnelCounter
	var m *sim.Machine
	type tally struct{ succInc, succDec int }
	tallies := make([]tally, procs)
	runOn(t, procs,
		func(mm *sim.Machine) {
			m = mm
			c = NewFunnelCounterBounds(mm, DefaultFunnelParams(procs), 0, hi)
		},
		func(p *sim.Proc) {
			id := p.ID()
			for i := 0; i < perProc; i++ {
				if p.Rand(2) == 0 {
					if c.BFaI(p) < hi {
						tallies[id].succInc++
					}
				} else if c.BFaD(p) > 0 {
					tallies[id].succDec++
				}
				p.LocalWork(int64(p.Rand(30)))
			}
		})
	inc, dec := 0, 0
	for _, tl := range tallies {
		inc += tl.succInc
		dec += tl.succDec
	}
	got := int64(m.Word(c.main))
	if got != int64(inc-dec) {
		t.Fatalf("final=%d, want succInc-succDec = %d-%d = %d", got, inc, dec, inc-dec)
	}
	if got < 0 || got > hi {
		t.Fatalf("value %d escaped [0,%d]", got, hi)
	}
}

func TestSimpleCounterBFaI(t *testing.T) {
	var c *Counter
	runOn(t, 1,
		func(m *sim.Machine) { c = NewCounter(m) },
		func(p *sim.Proc) {
			if got := c.BFaI(p, 2); got != 0 {
				t.Fatalf("BFaI = %d, want 0", got)
			}
			if got := c.BFaI(p, 2); got != 1 {
				t.Fatalf("BFaI = %d, want 1", got)
			}
			for i := 0; i < 3; i++ {
				if got := c.BFaI(p, 2); got != 2 {
					t.Fatalf("BFaI at bound = %d, want 2", got)
				}
			}
		})
}

func TestFunnelQueueFIFOOrder(t *testing.T) {
	var s *FunnelStack
	runOn(t, 1,
		func(m *sim.Machine) { s = NewFunnelQueue(m, testParams(), 32) },
		func(p *sim.Proc) {
			for i := uint64(1); i <= 6; i++ {
				s.Push(p, i)
			}
			for want := uint64(1); want <= 6; want++ {
				v, ok := s.Pop(p)
				if !ok || v != want {
					t.Fatalf("Pop = (%d,%v), want (%d,true)", v, ok, want)
				}
			}
			if !s.Empty(p) {
				t.Error("drained fifo bin not empty")
			}
		})
}

func TestFunnelQueueRingWraps(t *testing.T) {
	// Capacity 4 with alternating pushes and pops wraps the ring many
	// times; the count and contents must stay exact.
	var s *FunnelStack
	runOn(t, 1,
		func(m *sim.Machine) { s = NewFunnelQueue(m, testParams(), 4) },
		func(p *sim.Proc) {
			next := uint64(1)
			expect := uint64(1)
			for i := 0; i < 30; i++ {
				s.Push(p, next)
				next++
				v, ok := s.Pop(p)
				if !ok || v != expect {
					t.Fatalf("iter %d: Pop = (%d,%v), want (%d,true)", i, v, ok, expect)
				}
				expect++
			}
		})
}

func TestFunnelQueueConcurrentMultiset(t *testing.T) {
	const procs = 16
	const perProc = 14
	var (
		s   *FunnelStack
		bar *barrier
	)
	popped := make([][]uint64, procs)
	var drained []uint64
	runOn(t, procs,
		func(m *sim.Machine) {
			s = NewFunnelQueue(m, DefaultFunnelParams(procs), procs*perProc+1)
			bar = newBarrier(m)
		},
		func(p *sim.Proc) {
			id := p.ID()
			for i := 0; i < perProc; i++ {
				if p.Rand(2) == 0 {
					s.Push(p, uint64(id)<<16|uint64(i)|1<<30)
				} else if v, ok := s.Pop(p); ok {
					popped[id] = append(popped[id], v)
				}
			}
			bar.wait(p, 1)
			if id == 0 {
				for {
					v, ok := s.Pop(p)
					if !ok {
						break
					}
					drained = append(drained, v)
				}
			}
		})
	seen := map[uint64]int{}
	for _, vs := range popped {
		for _, v := range vs {
			seen[v]++
		}
	}
	for _, v := range drained {
		seen[v]++
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("value %#x seen %d times", v, n)
		}
	}
}
