package sim

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

// programCoroutines counts the goroutines whose stack is inside a
// processor's program coroutine. After Run returns it must be zero. The
// check looks at this package's coroutines only, so goroutines other
// tests leave exiting cannot disturb it.
func programCoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "pq/internal/sim.(*Proc).start.func") {
			count++
		}
	}
	return count
}

func TestAbortReleasesParkedProcs(t *testing.T) {
	// Some processors livelock, others park forever; when the event limit
	// trips, Run must return with every program aborted.
	cfg := DefaultConfig(4)
	cfg.MaxEvents = 500
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := m.Alloc(2)
	_, err = m.Run(func(p *Proc) {
		if p.ID()%2 == 0 {
			p.WaitWhile(a, 0) // parks forever
			return
		}
		for {
			p.Read(a + 1) // burns events
		}
	})
	if err != ErrEventLimit {
		t.Fatalf("err = %v, want ErrEventLimit", err)
	}
	if parked := m.ParkedProcs(); len(parked) != 2 {
		t.Fatalf("parked = %d, want 2", len(parked))
	}
}

func TestParkedProcsReporting(t *testing.T) {
	m, err := New(DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	a := m.Alloc(1)
	_, err = m.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.WaitWhile(a, 0)
		}
	})
	if err != ErrDeadlock {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	parked := m.ParkedProcs()
	if len(parked) != 1 || parked[0].Proc != 0 || parked[0].Addr != a || parked[0].While != 0 {
		t.Fatalf("parked = %+v", parked)
	}
}

func TestEventHeapQuickOrdering(t *testing.T) {
	// Property: popping the heap yields events in nondecreasing
	// (time, seq) order regardless of push order.
	f := func(times []int64) bool {
		var h eventHeap
		for i, tm := range times {
			if tm < 0 {
				tm = -tm
			}
			h.push(event{time: tm % 1000, seq: uint64(i)})
		}
		var prevT int64 = -1
		var prevS uint64
		for h.len() > 0 {
			e := h.pop()
			if e.time < prevT || (e.time == prevT && e.seq < prevS) {
				return false
			}
			prevT, prevS = e.time, e.seq
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWaitWhileManyWaitersSerializeOnWake(t *testing.T) {
	// A thundering herd of waiters must all wake, with wake re-fetches
	// serialized on the word's occupancy.
	const procs = 10
	m, err := New(DefaultConfig(procs))
	if err != nil {
		t.Fatal(err)
	}
	a := m.Alloc(1)
	woke := make([]int64, procs)
	_, err = m.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.LocalWork(500)
			p.Write(a, 7)
			return
		}
		p.WaitWhile(a, 0)
		woke[p.ID()] = p.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for i := 1; i < procs; i++ {
		if woke[i] == 0 {
			t.Fatalf("proc %d never woke", i)
		}
		if seen[woke[i]] {
			t.Errorf("two waiters woke at the same cycle %d (no serialization)", woke[i])
		}
		seen[woke[i]] = true
	}
}

// TestRunReleasesEveryProgram pins the engine's exit contract: however Run
// ends, every started program has been unwound (its deferred functions
// ran) and no coroutine goroutine outlives the call.
func TestRunReleasesEveryProgram(t *testing.T) {
	const procs = 4
	spin := func(p *Proc, a Addr) {
		for {
			p.Read(a)
		}
	}
	tests := []struct {
		name    string
		cfg     func(*Config)
		program func(p *Proc, a Addr)
		check   func(t *testing.T, err error)
	}{
		{"normal", func(*Config) {}, func(p *Proc, a Addr) { p.FetchAdd(a, 1) },
			func(t *testing.T, err error) {
				if err != nil {
					t.Fatal(err)
				}
			}},
		{"deadlock", func(*Config) {}, func(p *Proc, a Addr) { p.WaitWhile(a, 0) },
			func(t *testing.T, err error) {
				if err != ErrDeadlock {
					t.Fatalf("err = %v, want ErrDeadlock", err)
				}
			}},
		{"event limit", func(c *Config) { c.MaxEvents = 300 }, spin,
			func(t *testing.T, err error) {
				if err != ErrEventLimit {
					t.Fatalf("err = %v, want ErrEventLimit", err)
				}
			}},
		{"watchdog", func(c *Config) { c.WatchdogCycles = 1000 }, spin,
			func(t *testing.T, err error) {
				var wd *WatchdogError
				if !errors.As(err, &wd) {
					t.Fatalf("err = %v, want *WatchdogError", err)
				}
			}},
		{"crashed", func(c *Config) {
			c.Faults = &FaultPlan{Crashes: []Crash{{Proc: 1, At: 100}, {Proc: 2, At: 200}}}
		}, func(p *Proc, a Addr) {
			if p.ID() == 2 {
				p.WaitWhile(a, 0) // parked when its crash is enacted
			}
			for i := 0; i < 100; i++ {
				p.Read(a + 1)
			}
		}, func(t *testing.T, err error) {
			if err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig(procs)
			tt.cfg(&cfg)
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			a := m.Alloc(2)
			unwound := 0
			_, err = m.Run(func(p *Proc) {
				defer func() { unwound++ }()
				tt.program(p, a)
			})
			tt.check(t, err)
			if unwound != procs {
				t.Errorf("%d of %d programs ran their deferred functions", unwound, procs)
			}
			if n := programCoroutines(); n != 0 {
				t.Errorf("%d program coroutines outlive Run", n)
			}
		})
	}
}

func TestProgramPanicSurfacesFromRun(t *testing.T) {
	m, err := New(DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	a := m.Alloc(1)
	unwound := 0
	var got any
	func() {
		defer func() { got = recover() }()
		m.Run(func(p *Proc) {
			defer func() { unwound++ }()
			p.Read(a)
			if p.ID() == 1 {
				panic("boom")
			}
			p.WaitWhile(a, 0)
		})
	}()
	if got != "boom" {
		t.Fatalf("recovered %v from Run, want the program's panic value", got)
	}
	if unwound != 3 {
		t.Errorf("%d of 3 programs ran their deferred functions", unwound)
	}
	if n := programCoroutines(); n != 0 {
		t.Errorf("%d program coroutines outlive Run", n)
	}
}

func TestProcCallAfterAbortPanicsAgain(t *testing.T) {
	m, err := New(DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	a := m.Alloc(1)
	var got any
	_, err = m.Run(func(p *Proc) {
		defer func() {
			defer func() { got = recover() }()
			p.Write(a, 1) // must not block: nobody will resume it
		}()
		p.WaitWhile(a, 0)
	})
	if err != ErrDeadlock {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	if got != errAborted {
		t.Fatalf("Proc call from a deferred function after abort recovered %v, want errAborted", got)
	}
	if m.Word(a) != 0 {
		t.Error("the aborted program's write reached memory")
	}
}

// TestRunAllocationsIndependentOfEvents pins that the engine's per-event
// path allocates nothing: a run a hundred times longer may allocate no
// more than a few objects beyond a short one.
func TestRunAllocationsIndependentOfEvents(t *testing.T) {
	const procs = 8
	mallocs := func(opsPerProc int) (uint64, int64) {
		m, err := New(DefaultConfig(procs))
		if err != nil {
			t.Fatal(err)
		}
		a := m.Alloc(procs)
		m.SetWord(a, 0) // materialize the page outside the measurement
		program := func(p *Proc) {
			for i := 0; i < opsPerProc; i++ {
				p.FetchAdd(a+Addr(p.Rand(procs)), 1)
				p.LocalWork(3)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		stats, err := m.Run(program)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.Mallocs - before.Mallocs, stats.Events
	}
	short, shortEvents := mallocs(10)
	long, longEvents := mallocs(1000)
	if longEvents < 50*shortEvents {
		t.Fatalf("events: %d short, %d long — the long run is not long enough to tell", shortEvents, longEvents)
	}
	if short > 64*procs {
		t.Errorf("short run: %d allocations for %d processors", short, procs)
	}
	if long > short+16 {
		t.Errorf("allocations grow with events: %d for %d events, %d for %d", short, shortEvents, long, longEvents)
	}
}
