package sim

import (
	"fmt"
	"testing"
)

func TestConfigNormalize(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{"valid", Config{Procs: 4}, false},
		{"zero procs", Config{Procs: 0}, true},
		{"too many procs", Config{Procs: MaxProcs + 1}, true},
		{"max procs", Config{Procs: MaxProcs}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.normalize()
			if (err != nil) != tt.wantErr {
				t.Fatalf("normalize() error = %v, wantErr %v", err, tt.wantErr)
			}
			if err == nil && tt.cfg.RemoteCost != DefaultRemoteCost {
				t.Errorf("RemoteCost not defaulted: %d", tt.cfg.RemoteCost)
			}
		})
	}
}

func TestEventHeapOrdering(t *testing.T) {
	var h eventHeap
	h.push(event{time: 5, seq: 1})
	h.push(event{time: 1, seq: 2})
	h.push(event{time: 5, seq: 0})
	h.push(event{time: 3, seq: 3})
	want := []struct {
		time int64
		seq  uint64
	}{{1, 2}, {3, 3}, {5, 0}, {5, 1}}
	for i, w := range want {
		e := h.pop()
		if e.time != w.time || e.seq != w.seq {
			t.Fatalf("pop %d = (%d,%d), want (%d,%d)", i, e.time, e.seq, w.time, w.seq)
		}
	}
	if h.len() != 0 {
		t.Fatalf("heap not empty after pops")
	}
}

func TestSingleProcReadWrite(t *testing.T) {
	m, err := New(DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	a := m.Alloc(2)
	stats, err := m.Run(func(p *Proc) {
		p.Write(a, 42)
		if got := p.Read(a); got != 42 {
			t.Errorf("Read = %d, want 42", got)
		}
		p.Write(a+1, 7)
		if got := p.Read(a + 1); got != 7 {
			t.Errorf("Read = %d, want 7", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FinalTime <= 0 {
		t.Errorf("FinalTime = %d, want > 0", stats.FinalTime)
	}
	if m.Word(a) != 42 {
		t.Errorf("final word = %d, want 42", m.Word(a))
	}
}

func TestCachedReadIsCheap(t *testing.T) {
	m, err := New(DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	a := m.Alloc(1)
	var missCost, hitCost int64
	_, err = m.Run(func(p *Proc) {
		t0 := p.Now()
		p.Read(a) // miss
		t1 := p.Now()
		p.Read(a) // hit
		t2 := p.Now()
		missCost, hitCost = t1-t0, t2-t1
	})
	if err != nil {
		t.Fatal(err)
	}
	if missCost != DefaultRemoteCost {
		t.Errorf("miss cost = %d, want %d", missCost, DefaultRemoteCost)
	}
	if hitCost != DefaultLocalCost {
		t.Errorf("hit cost = %d, want %d", hitCost, DefaultLocalCost)
	}
}

func TestWriteInvalidatesOtherCaches(t *testing.T) {
	m, err := New(DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	a := m.Alloc(1)
	flag := m.Alloc(1)
	costs := make([]int64, 2)
	_, err = m.Run(func(p *Proc) {
		switch p.ID() {
		case 0:
			p.Read(a) // cache it
			p.Write(flag, 1)
			p.WaitWhile(flag, 1) // wait for proc 1's write
			t0 := p.Now()
			p.Read(a) // must miss: proc 1 wrote a
			costs[0] = p.Now() - t0
		case 1:
			p.WaitWhile(flag, 0)
			p.Write(a, 99)
			p.Write(flag, 2)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if costs[0] != DefaultRemoteCost {
		t.Errorf("post-invalidation read cost = %d, want remote %d", costs[0], DefaultRemoteCost)
	}
}

func TestSwapAndCAS(t *testing.T) {
	m, err := New(DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	a := m.Alloc(1)
	m.SetWord(a, 5)
	_, err = m.Run(func(p *Proc) {
		if old := p.Swap(a, 6); old != 5 {
			t.Errorf("Swap returned %d, want 5", old)
		}
		if p.CAS(a, 7, 8) {
			t.Error("CAS(7,8) succeeded on value 6")
		}
		if !p.CAS(a, 6, 9) {
			t.Error("CAS(6,9) failed on value 6")
		}
		if old := p.FetchAdd(a, 3); old != 9 {
			t.Errorf("FetchAdd returned %d, want 9", old)
		}
		if got := p.Read(a); got != 12 {
			t.Errorf("final Read = %d, want 12", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHotSpotSerialization(t *testing.T) {
	// P processors all write the same word at time zero; completion times
	// must serialize on the word's occupancy.
	const procs = 8
	m, err := New(DefaultConfig(procs))
	if err != nil {
		t.Fatal(err)
	}
	a := m.Alloc(1)
	finish := make([]int64, procs)
	_, err = m.Run(func(p *Proc) {
		p.Write(a, uint64(p.ID()))
		finish[p.ID()] = p.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sorted finish times should be spaced by exactly Occupancy.
	seen := make(map[int64]bool)
	var min, max int64 = 1 << 62, 0
	for _, f := range finish {
		if seen[f] {
			t.Errorf("two writes completed at the same cycle %d", f)
		}
		seen[f] = true
		if f < min {
			min = f
		}
		if f > max {
			max = f
		}
	}
	wantSpread := int64(procs-1) * DefaultOccupancy
	if max-min != wantSpread {
		t.Errorf("finish spread = %d, want %d", max-min, wantSpread)
	}
}

func TestColdWordsDoNotContend(t *testing.T) {
	const procs = 8
	m, err := New(DefaultConfig(procs))
	if err != nil {
		t.Fatal(err)
	}
	a := m.Alloc(procs)
	finish := make([]int64, procs)
	_, err = m.Run(func(p *Proc) {
		p.Write(a+Addr(p.ID()), 1)
		finish[p.ID()] = p.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range finish {
		if f != DefaultRemoteCost {
			t.Errorf("proc %d finished at %d, want %d", i, f, DefaultRemoteCost)
		}
	}
}

func TestWaitWhileWakesOnWrite(t *testing.T) {
	m, err := New(DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	a := m.Alloc(1)
	var observed uint64
	_, err = m.Run(func(p *Proc) {
		switch p.ID() {
		case 0:
			observed = p.WaitWhile(a, 0)
		case 1:
			p.LocalWork(1000)
			p.Write(a, 17)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if observed != 17 {
		t.Errorf("WaitWhile observed %d, want 17", observed)
	}
}

func TestWaitWhileReturnsImmediatelyOnChangedValue(t *testing.T) {
	m, err := New(DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	a := m.Alloc(1)
	m.SetWord(a, 3)
	_, err = m.Run(func(p *Proc) {
		if got := p.WaitWhile(a, 0); got != 3 {
			t.Errorf("WaitWhile = %d, want 3", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	m, err := New(DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	a := m.Alloc(1)
	_, err = m.Run(func(p *Proc) {
		p.WaitWhile(a, 0) // nobody will ever write a
	})
	if err != ErrDeadlock {
		t.Fatalf("Run error = %v, want ErrDeadlock", err)
	}
}

func TestEventLimit(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.MaxEvents = 100
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := m.Alloc(1)
	_, err = m.Run(func(p *Proc) {
		for {
			p.Read(a)
		}
	})
	if err != ErrEventLimit {
		t.Fatalf("Run error = %v, want ErrEventLimit", err)
	}
}

func TestRunTwiceFails(t *testing.T) {
	m, err := New(DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(func(p *Proc) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(func(p *Proc) {}); err == nil {
		t.Fatal("second Run succeeded, want error")
	}
}

func TestDeterminism(t *testing.T) {
	type outcome struct {
		final      int64
		mem, trace uint64
		procEvents string
	}
	run := func() outcome {
		var o outcome
		cfg := DefaultConfig(16)
		cfg.Trace = func(e TraceEvent) {
			for _, v := range []uint64{uint64(e.Time), uint64(e.Proc), uint64(e.Op), uint64(e.Addr)} {
				o.trace = (o.trace ^ v) * 1099511628211
			}
		}
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		a := m.Alloc(4)
		stats, err := m.Run(func(p *Proc) {
			for i := 0; i < 50; i++ {
				slot := Addr(p.Rand(4))
				old := p.Swap(a+slot, uint64(p.ID()))
				if old == uint64(p.ID()) {
					p.LocalWork(int64(p.Rand(10)))
				}
				p.CAS(a+slot, old, old+1)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := Addr(0); i < 4; i++ {
			o.mem = o.mem*31 + m.Word(a+i)
		}
		o.final = stats.FinalTime
		o.procEvents = fmt.Sprint(m.ProcEvents())
		return o
	}
	if o1, o2 := run(), run(); o1 != o2 {
		t.Fatalf("nondeterministic:\nrun1=%+v\nrun2=%+v", o1, o2)
	}
}

func TestAllocExhaustionPanics(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.MemoryWords = 8
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Alloc beyond memory did not panic")
		}
	}()
	m.Alloc(9)
}

func TestLocalWorkAdvancesClock(t *testing.T) {
	m, err := New(DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run(func(p *Proc) {
		t0 := p.Now()
		p.LocalWork(123)
		if d := p.Now() - t0; d != 123 {
			t.Errorf("LocalWork advanced %d cycles, want 123", d)
		}
		p.LocalWork(0) // no-op
		p.LocalWork(-5)
	})
	if err != nil {
		t.Fatal(err)
	}
}
