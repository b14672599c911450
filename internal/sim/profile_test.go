package sim

import "testing"

func TestHotSpotProfiling(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Profile = true
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hot := m.Alloc(1)
	cold := m.Alloc(8)
	m.Label(hot, 1, "hot-counter")
	m.Label(cold, 8, "private-slots")
	_, err = m.Run(func(p *Proc) {
		for i := 0; i < 20; i++ {
			p.FetchAdd(hot, 1)                    // everyone hammers one word
			p.Write(cold+Addr(p.ID()), uint64(i)) // private, owned after first touch
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	spots := m.HotSpots(3)
	if len(spots) == 0 {
		t.Fatal("no hot spots recorded")
	}
	if spots[0].Addr != hot || spots[0].Name != "hot-counter" {
		t.Fatalf("top hot spot = %+v, want the shared counter", spots[0])
	}
	if spots[0].Contended == 0 || spots[0].WaitCycles == 0 {
		t.Fatalf("shared counter shows no contention: %+v", spots[0])
	}
	for _, s := range spots[1:] {
		if s.Name == "private-slots" && s.WaitCycles > 0 {
			t.Fatalf("private slot shows contention: %+v", s)
		}
	}
}

func TestHotSpotsDisabledByDefault(t *testing.T) {
	m, err := New(DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	a := m.Alloc(1)
	if _, err := m.Run(func(p *Proc) { p.Write(a, 1) }); err != nil {
		t.Fatal(err)
	}
	if got := m.HotSpots(5); got != nil {
		t.Fatalf("HotSpots without profiling = %v, want nil", got)
	}
}

func TestLabelFor(t *testing.T) {
	m, err := New(DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	a := m.Alloc(10)
	m.Label(a, 10, "outer")
	m.Label(a+2, 3, "inner")
	if got := m.LabelFor(a + 3); got != "inner" {
		t.Errorf("LabelFor inner = %q", got)
	}
	if got := m.LabelFor(a + 8); got != "outer" {
		t.Errorf("LabelFor outer = %q", got)
	}
	if got := m.LabelFor(a + 100); got != "" {
		t.Errorf("LabelFor unlabeled = %q", got)
	}
}

// spanFunc is a SpanRecorder that hands engine spans to a function and
// drops operation spans.
type spanFunc func(Span)

func (f spanFunc) RecordSpan(s Span)                    { f(s) }
func (spanFunc) RecordOpSpan(int, string, int64, int64) {}

// TestTraceHook pins the engine's per-access hook, Config.Spans: on one
// processor, which never parks, every serviced operation yields exactly
// one span, in program order, naming its kind and address, and each
// span starts where the previous one ended.
func TestTraceHook(t *testing.T) {
	var spans []Span
	cfg := DefaultConfig(1)
	cfg.Spans = spanFunc(func(s Span) { spans = append(spans, s) })
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := m.Alloc(2)
	if _, err := m.Run(func(p *Proc) {
		p.Write(a, 1)
		p.Read(a)
		p.Swap(a+1, 2)
		p.CAS(a+1, 2, 3)
		p.FetchAdd(a, 1)
		p.LocalWork(10)
		p.WaitWhile(a, 99)
	}); err != nil {
		t.Fatal(err)
	}
	want := []TraceOp{TraceWrite, TraceRead, TraceSwap, TraceCAS, TraceFetchAdd, TraceLocalWork, TraceWaitWhile}
	if len(spans) != len(want) {
		t.Fatalf("recorded %d spans, want %d: %v", len(spans), len(want), spans)
	}
	for i, s := range spans {
		if s.Op != want[i] {
			t.Errorf("span %d = %v, want %v", i, s.Op, want[i])
		}
		if s.Proc != 0 {
			t.Errorf("span %d proc = %d", i, s.Proc)
		}
		if i > 0 && s.Start != spans[i-1].End {
			t.Errorf("span %d starts at %d, previous ended at %d", i, s.Start, spans[i-1].End)
		}
	}
	// Addresses recorded for memory ops; LocalWork spans its cycles.
	if spans[0].Addr != a || spans[2].Addr != a+1 {
		t.Errorf("addresses wrong: %+v", spans)
	}
	if lw := spans[5]; lw.Phase != PhaseLocalWork || lw.End-lw.Start != 10 {
		t.Errorf("LocalWork span = %+v, want 10 cycles of %v", lw, PhaseLocalWork)
	}
}

func TestTraceOpStrings(t *testing.T) {
	ops := []TraceOp{TraceRead, TraceWrite, TraceSwap, TraceCAS, TraceFetchAdd, TraceWaitWhile, TraceLocalWork, TraceOp(99)}
	for _, op := range ops {
		if op.String() == "" {
			t.Errorf("empty name for %d", op)
		}
	}
}
