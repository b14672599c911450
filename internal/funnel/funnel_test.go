package funnel

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func smallParams() Params {
	return Params{Widths: []int{4, 2}, Attempts: 3, Spin: []int{8, 8}, Adaptive: true}
}

func TestParamsNormalized(t *testing.T) {
	tests := []struct {
		name string
		in   Params
	}{
		{"empty", Params{}},
		{"zero widths", Params{Widths: []int{0, -1}}},
		{"no spin", Params{Widths: []int{3}, Attempts: 2}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := tt.in.normalized()
			if got.Attempts < 1 {
				t.Errorf("Attempts = %d", got.Attempts)
			}
			if len(got.Spin) != len(got.Widths) {
				t.Errorf("Spin len %d != Widths len %d", len(got.Spin), len(got.Widths))
			}
			for i, w := range got.Widths {
				if w < 1 {
					t.Errorf("width[%d] = %d", i, w)
				}
			}
		})
	}
}

func TestDefaultParamsLevels(t *testing.T) {
	tests := []struct {
		procs, want int
	}{{1, 1}, {4, 1}, {8, 2}, {32, 2}, {64, 3}, {128, 3}, {256, 4}}
	for _, tt := range tests {
		p := DefaultParams(tt.procs)
		if got := p.levels(); got != tt.want {
			t.Errorf("DefaultParams(%d).levels() = %d, want %d", tt.procs, got, tt.want)
		}
	}
}

func TestCounterSequential(t *testing.T) {
	c := NewCounter(smallParams(), 0, false, 0)
	for i := int64(0); i < 50; i++ {
		if got := c.FaI(); got != i {
			t.Fatalf("FaI #%d = %d", i, got)
		}
	}
	if got := c.Value(); got != 50 {
		t.Fatalf("Value = %d, want 50", got)
	}
	for i := int64(50); i > 0; i-- {
		if got := c.FaD(); got != i {
			t.Fatalf("FaD = %d, want %d", got, i)
		}
	}
}

func TestCounterBoundedSequential(t *testing.T) {
	c := NewCounter(smallParams(), 2, true, 0)
	if got := c.FaD(); got != 2 {
		t.Fatalf("FaD = %d, want 2", got)
	}
	if got := c.FaD(); got != 1 {
		t.Fatalf("FaD = %d, want 1", got)
	}
	for i := 0; i < 5; i++ {
		if got := c.FaD(); got != 0 {
			t.Fatalf("FaD at bound = %d, want 0", got)
		}
	}
	if got := c.Value(); got != 0 {
		t.Fatalf("Value = %d, want 0", got)
	}
}

func TestCounterConcurrentFaIPermutation(t *testing.T) {
	const goroutines = 16
	const perG = 500
	c := NewCounter(DefaultParams(goroutines), 0, false, 0)
	results := make([][]int64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[g] = make([]int64, 0, perG)
			for i := 0; i < perG; i++ {
				results[g] = append(results[g], c.FaI())
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("final Value = %d, want %d", got, goroutines*perG)
	}
	seen := make([]bool, goroutines*perG)
	for _, rs := range results {
		for _, v := range rs {
			if v < 0 || v >= int64(len(seen)) {
				t.Fatalf("return %d out of range", v)
			}
			if seen[v] {
				t.Fatalf("duplicate return %d", v)
			}
			seen[v] = true
		}
	}
}

func TestCounterConcurrentBoundedInvariant(t *testing.T) {
	const goroutines = 12
	const perG = 400
	c := NewCounter(DefaultParams(goroutines), 0, true, 0)
	type tally struct {
		incs, succDecs int64
		_pad           [6]int64
	}
	tallies := make([]tally, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if (i+g)%2 == 0 {
					c.FaI()
					tallies[g].incs++
				} else if c.FaD() > 0 {
					tallies[g].succDecs++
				}
			}
		}()
	}
	wg.Wait()
	var incs, succ int64
	for g := range tallies {
		incs += tallies[g].incs
		succ += tallies[g].succDecs
	}
	if got := c.Value(); got != incs-succ {
		t.Fatalf("Value = %d, want incs-succ = %d-%d = %d", got, incs, succ, incs-succ)
	}
	if c.Value() < 0 {
		t.Fatalf("bounded counter went negative: %d", c.Value())
	}
}

func TestCounterAddLargeDelta(t *testing.T) {
	c := NewCounter(smallParams(), 0, false, 0)
	if got := c.Add(100); got != 0 {
		t.Fatalf("Add(100) = %d, want 0", got)
	}
	if got := c.Value(); got != 100 {
		t.Fatalf("Value = %d, want 100", got)
	}
}

func TestCounterNegativeValues(t *testing.T) {
	// Unbounded counters may go negative; the result encoding must
	// round-trip negative values.
	const goroutines = 8
	const perG = 200
	c := NewCounter(DefaultParams(goroutines), 0, false, 0)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if v := c.FaD(); v < -int64(goroutines*perG) || v > int64(goroutines*perG) {
					t.Errorf("FaD returned wild value %d", v)
				}
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != -goroutines*perG {
		t.Fatalf("Value = %d, want %d", got, -goroutines*perG)
	}
}

func TestStackSequentialLIFO(t *testing.T) {
	s := NewStack[int](smallParams())
	if !s.Empty() {
		t.Fatal("new stack not empty")
	}
	if _, ok := s.Pop(); ok {
		t.Fatal("Pop on empty stack succeeded")
	}
	for i := 1; i <= 10; i++ {
		s.Push(i)
	}
	if s.Len() != 10 {
		t.Fatalf("Len = %d, want 10", s.Len())
	}
	for i := 10; i >= 1; i-- {
		v, ok := s.Pop()
		if !ok || v != i {
			t.Fatalf("Pop = (%d,%v), want (%d,true)", v, ok, i)
		}
	}
	if !s.Empty() {
		t.Fatal("drained stack not empty")
	}
}

func TestStackConcurrentMultiset(t *testing.T) {
	const goroutines = 16
	const perG = 300
	s := NewStack[uint64](DefaultParams(goroutines))
	popped := make([][]uint64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if (i+g)%2 == 0 {
					s.Push(uint64(g)<<32 | uint64(i) | 1<<48)
				} else if v, ok := s.Pop(); ok {
					popped[g] = append(popped[g], v)
				}
			}
		}()
	}
	wg.Wait()
	seen := map[uint64]int{}
	for _, vs := range popped {
		for _, v := range vs {
			seen[v]++
		}
	}
	for {
		v, ok := s.Pop()
		if !ok {
			break
		}
		seen[v]++
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("value %#x popped %d times", v, n)
		}
		if v&(1<<48) == 0 {
			t.Fatalf("alien value %#x", v)
		}
	}
}

func TestStackPointerValues(t *testing.T) {
	// Pointer payloads exercise the GC-zeroing path and elimination item
	// handoff with reference types.
	type payload struct{ n int }
	const goroutines = 8
	const perG = 200
	s := NewStack[*payload](DefaultParams(goroutines))
	var wg sync.WaitGroup
	var got [goroutines]int
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if i%2 == 0 {
					s.Push(&payload{n: g*perG + i})
				} else if v, ok := s.Pop(); ok {
					if v == nil {
						t.Error("popped nil payload")
						return
					}
					got[g]++
				}
			}
		}()
	}
	wg.Wait()
}

func TestQuickCounterNetEffect(t *testing.T) {
	// Property: for any small batch of concurrent increments per
	// goroutine, the counter's final value equals the total count.
	f := func(counts []uint8) bool {
		if len(counts) == 0 {
			return true
		}
		if len(counts) > 8 {
			counts = counts[:8]
		}
		c := NewCounter(smallParams(), 0, false, 0)
		var wg sync.WaitGroup
		total := int64(0)
		for _, n := range counts {
			n := int64(n % 50)
			total += n
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int64(0); i < n; i++ {
					c.FaI()
				}
			}()
		}
		wg.Wait()
		return c.Value() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickStackConservation(t *testing.T) {
	// Property: pushes minus successful pops equals what remains.
	f := func(pushes, pops uint8) bool {
		s := NewStack[int](smallParams())
		var wg sync.WaitGroup
		nPush := int(pushes%64) + 1
		nPop := int(pops % 64)
		succ := make([]int, 2)
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < nPush; i++ {
				s.Push(i)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < nPop; i++ {
				if _, ok := s.Pop(); ok {
					succ[1]++
				}
			}
		}()
		wg.Wait()
		return s.Len() == nPush-succ[1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGOMAXPROCS1Progress(t *testing.T) {
	// Funnels must not deadlock when goroutines cannot run in parallel;
	// the spin loops yield.
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	c := NewCounter(DefaultParams(8), 0, true, 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c.FaI()
				c.FaD()
			}
		}()
	}
	wg.Wait()
	if c.Value() < 0 {
		t.Fatalf("Value = %d", c.Value())
	}
}

func TestCounterUpperBoundSequential(t *testing.T) {
	c := NewCounterBounds(smallParams(), 8, 0, 10)
	if got := c.BFaI(); got != 8 {
		t.Fatalf("BFaI = %d, want 8", got)
	}
	if got := c.BFaI(); got != 9 {
		t.Fatalf("BFaI = %d, want 9", got)
	}
	for i := 0; i < 4; i++ {
		if got := c.BFaI(); got != 10 {
			t.Fatalf("BFaI at bound = %d, want 10", got)
		}
	}
	if got := c.Value(); got != 10 {
		t.Fatalf("Value = %d, want 10", got)
	}
	// Decrements still work and respect the lower bound.
	for want := int64(10); want > 0; want-- {
		if got := c.FaD(); got != want {
			t.Fatalf("FaD = %d, want %d", got, want)
		}
	}
	if got := c.FaD(); got != 0 {
		t.Fatalf("FaD at lower bound = %d, want 0", got)
	}
}

func TestCounterTwoSidedConcurrentInvariant(t *testing.T) {
	// With both bounds active, the value must always stay inside the
	// range, and the net effect must match the successful operations.
	const goroutines = 10
	const perG = 300
	const lo, hi = 0, 25
	c := NewCounterBounds(DefaultParams(goroutines), 10, lo, hi)
	var wg sync.WaitGroup
	type tally struct {
		succInc, succDec int64
		_pad             [6]int64
	}
	tallies := make([]tally, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if (i+g)%2 == 0 {
					if c.BFaI() < hi {
						tallies[g].succInc++
					}
				} else if c.FaD() > lo {
					tallies[g].succDec++
				}
			}
		}()
	}
	wg.Wait()
	var inc, dec int64
	for g := range tallies {
		inc += tallies[g].succInc
		dec += tallies[g].succDec
	}
	got := c.Value()
	if got != 10+inc-dec {
		t.Fatalf("Value = %d, want 10+%d-%d = %d", got, inc, dec, 10+inc-dec)
	}
	if got < lo || got > hi {
		t.Fatalf("Value %d escaped [%d,%d]", got, lo, hi)
	}
}

func TestFIFOStackSequentialOrder(t *testing.T) {
	s := NewFIFOStack[int](smallParams())
	for i := 1; i <= 6; i++ {
		s.Push(i)
	}
	for want := 1; want <= 6; want++ {
		v, ok := s.Pop()
		if !ok || v != want {
			t.Fatalf("Pop = (%d,%v), want (%d,true)", v, ok, want)
		}
	}
	if !s.Empty() {
		t.Fatal("drained fifo stack not empty")
	}
	// Interleaved reuse after head reset.
	s.Push(7)
	s.Push(8)
	if v, _ := s.Pop(); v != 7 {
		t.Fatalf("after reset Pop = %d, want 7", v)
	}
}

func TestFIFOStackConcurrentMultiset(t *testing.T) {
	const goroutines = 12
	const perG = 300
	s := NewFIFOStack[uint64](DefaultParams(goroutines))
	popped := make([][]uint64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if (i+g)%2 == 0 {
					s.Push(uint64(g)<<32 | uint64(i) | 1<<48)
				} else if v, ok := s.Pop(); ok {
					popped[g] = append(popped[g], v)
				}
			}
		}()
	}
	wg.Wait()
	seen := map[uint64]int{}
	for _, vs := range popped {
		for _, v := range vs {
			seen[v]++
		}
	}
	for {
		v, ok := s.Pop()
		if !ok {
			break
		}
		seen[v]++
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("value %#x seen %d times", v, n)
		}
	}
	if !s.Empty() || s.Len() != 0 {
		t.Fatal("stack not empty after drain")
	}
}

func TestStatsReportCombiningActivity(t *testing.T) {
	const goroutines = 16
	c := NewCounter(DefaultParams(goroutines), 1<<40, true, 0)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if (i+g)%2 == 0 {
					c.FaI()
				} else {
					c.FaD()
				}
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.Central == 0 {
		t.Fatal("no central applications recorded")
	}
	total := st.Combined + st.Eliminated + st.Central
	if total == 0 {
		t.Fatalf("no activity recorded: %+v", st)
	}
	// Stack stats too.
	s := NewStack[int](DefaultParams(goroutines))
	s.Push(1)
	if _, ok := s.Pop(); !ok {
		t.Fatal("pop failed")
	}
	if s.Stats().Central == 0 {
		t.Fatalf("stack central not recorded: %+v", s.Stats())
	}
}

// TestStatsExactWhenSequential checks that adaptive objects with no
// contention apply every operation by the central-first step and count
// each one in Central: nothing combines, eliminates or retries.
func TestStatsExactWhenSequential(t *testing.T) {
	c := NewCounterBounds(DefaultParams(8), 0, 0, 4)
	ops := 0
	for i := 0; i < 6; i++ { // the last two meet the upper bound
		c.BFaI()
		ops++
	}
	for i := 0; i < 6; i++ { // the last two meet the lower bound
		c.FaD()
		ops++
	}
	c.AddN(3)
	c.SubN(5)
	ops += 2
	if got, want := c.Stats(), (Stats{Central: int64(ops)}); got != want {
		t.Fatalf("counter Stats = %+v, want %+v", got, want)
	}
	if got := c.Value(); got != 0 {
		t.Fatalf("counter Value = %d, want 0", got)
	}

	for _, s := range []*Stack[int]{NewStack[int](DefaultParams(8)), NewFIFOStack[int](DefaultParams(8))} {
		for i := 0; i < 5; i++ {
			s.Push(i)
		}
		for i := 0; i < 7; i++ { // the last two find it empty
			s.Pop()
		}
		if got, want := s.Stats(), (Stats{Central: 12}); got != want {
			t.Fatalf("stack (fifo=%v) Stats = %+v, want %+v", s.fifo, got, want)
		}
	}
}

// TestStackEliminatesWhileCentralBusy holds the central lock while
// pushers and poppers run: the central-first step fails for all of them,
// so they must enter the layers and eliminate there. After the release,
// every pushed value must come out exactly once.
func TestStackEliminatesWhileCentralBusy(t *testing.T) {
	const n, perG = 4, 200
	s := NewStack[uint64](DefaultParams(2 * n))
	s.mu.Lock()
	popped := make([][]uint64, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				s.Push(uint64(g)<<32 | uint64(i))
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if v, ok := s.Pop(); ok {
					popped[g] = append(popped[g], v)
				}
			}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Eliminated == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	elim := s.Stats().Eliminated
	s.mu.Unlock()
	wg.Wait()
	if elim == 0 {
		t.Fatalf("no elimination while the central lock was held: %+v", s.Stats())
	}

	seen := make(map[uint64]int, n*perG)
	for _, vs := range popped {
		for _, v := range vs {
			seen[v]++
		}
	}
	for v, ok := s.Pop(); ok; v, ok = s.Pop() {
		seen[v]++
	}
	if len(seen) != n*perG {
		t.Fatalf("%d distinct values came out, want %d", len(seen), n*perG)
	}
	for v, k := range seen {
		if g, i := v>>32, v&(1<<32-1); g >= n || i >= perG || k != 1 {
			t.Fatalf("value %#x came out %d times", v, k)
		}
	}
}
