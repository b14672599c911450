package main

import (
	"bytes"
	"math"
	"sync/atomic"
	"testing"
)

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol*math.Max(math.Abs(b), 1e-12) }

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([3,1,4,1,5,9,2,6,5,3], n=4) == [1.75, 3.5, 5.25]
	q1, q2, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q2 != 3.5 || q3 != 5.25 {
		t.Errorf("ten values: quartiles %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([10,20,30,40,50], n=4) == [15.0, 30.0, 45.0]
	q1, q2, q3 = quartiles([]float64{50, 10, 40, 20, 30})
	if q1 != 15 || q2 != 30 || q3 != 45 {
		t.Errorf("five values: quartiles %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("two values: quartiles %v %v %v", q1, q2, q3)
	}
	if m := median([]float64{5, 1, 4}); m != 4 {
		t.Errorf("odd median %v", m)
	}
	if m := median([]float64{5, 1, 4, 2}); m != 3 {
		t.Errorf("even median %v", m)
	}
	if s := spread([]float64{10, 20, 30, 40, 50}); s != 1 {
		t.Errorf("spread %v, want (45-15)/30", s)
	}
}

// The segment rule: a reported value is the median of the per-segment
// values, so one disturbed segment does not move it.
func TestSegmentMedianIgnoresOneBadSegment(t *testing.T) {
	if m := median([]float64{100, 101, 99, 100.5, 900}); m != 100.5 {
		t.Errorf("median of segments %v", m)
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100_000; v++ {
		h.Observe(v * 10) // uniform on (0, 1 ms] in ns
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		if got, want := h.Quantile(q), q*1e6; !near(got, want, 0.01) {
			t.Errorf("q%g = %v, want about %v", q, got, want)
		}
	}
	if h.max != 1_000_000 || h.n != 100_000 {
		t.Errorf("max %d n %d", h.max, h.n)
	}
	// Every value lands in a bucket whose bounds hold it.
	for _, v := range []uint64{0, 1, 127, 128, 129, 255, 256, 1000, 123456789, 1 << 35, 1 << 40} {
		lo, hi := histBounds(histBucket(v))
		if v < 1<<histMaxBits && (float64(v) < lo || float64(v) >= hi) {
			t.Errorf("value %d in bucket [%v,%v)", v, lo, hi)
		}
	}
	var a, b hist
	a.Observe(100)
	b.Observe(300)
	b.Observe(500)
	a.Merge(&b)
	if a.n != 3 || a.max != 500 || a.countBelow(300) != 1 {
		t.Errorf("merge: n %d max %d below %d", a.n, a.max, a.countBelow(300))
	}
	var empty hist
	if empty.Quantile(0.99) != 0 {
		t.Error("empty histogram quantile")
	}
}

// A percentile is reported only when at least ten samples lie beyond it.
func TestTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n   uint64
		top float64
	}{{5, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {100000, 0.9999}}
	for _, c := range cases {
		if got := topQuantile(c.n); got != c.top {
			t.Errorf("%d samples: top percentile %v, want %v", c.n, got, c.top)
		}
	}
	if supported(999, 0.99) || !supported(1000, 0.99) {
		t.Error("p99 needs exactly 1000 samples")
	}
}

// fakeClock is a clock that only moves when told to or slept on.
type fakeClock struct{ t int64 }

func (c *fakeClock) Now() int64 { return c.t }
func (c *fakeClock) SleepUntil(t int64) {
	if t > c.t {
		c.t = t
	}
}

// fakeCaller takes a fixed service time on the fake clock and keeps a
// LIFO of what it holds.
type fakeCaller struct {
	clk     *fakeClock
	service int64
	held    []uint64
}

func (c *fakeCaller) insert(pri int, id uint64) error {
	c.clk.t += c.service
	c.held = append(c.held, id)
	return nil
}

func (c *fakeCaller) deleteMin() (uint64, int, bool, error) {
	c.clk.t += c.service
	if len(c.held) == 0 {
		return 0, 0, false, nil
	}
	id := c.held[len(c.held)-1]
	c.held = c.held[:len(c.held)-1]
	return id, idPri(id), true, nil
}

func TestSegClockMarksEachSlotAtItsBound(t *testing.T) {
	clk := &fakeClock{t: 500}
	bounds := slotBounds(1000, 200, 100)
	if bounds[slotWarm] != 1000 || bounds[1] != 1200 || bounds[2] != 1300 || bounds[slotTail] != 1200+100*nSegments {
		t.Fatalf("bounds %v", bounds)
	}
	var sc segClock
	sc.run(clk, bounds)
	if sc.flips != bounds || sc.cur.Load() != slotTail {
		t.Errorf("flips %v cur %d", sc.flips, sc.cur.Load())
	}
}

// stopAfter is a caller that moves the run to its next slot every n ops,
// standing in for the controller goroutine.
type stopAfter struct {
	fakeCaller
	sc  *segClock
	n   int
	ops int
}

func (c *stopAfter) tick() {
	c.ops++
	if c.ops%c.n == 0 {
		c.sc.cur.Add(1)
	}
}
func (c *stopAfter) insert(pri int, id uint64) error {
	defer c.tick()
	return c.fakeCaller.insert(pri, id)
}
func (c *stopAfter) deleteMin() (uint64, int, bool, error) {
	defer c.tick()
	return c.fakeCaller.deleteMin()
}

func TestClosedLoopFilesOpsUnderTheSlotTheyCompletedIn(t *testing.T) {
	clk := &fakeClock{}
	var sc segClock
	c := &stopAfter{fakeCaller: fakeCaller{clk: clk, service: 1000, held: prefillIDs(1, 64)}, sc: &sc, n: 40}
	stream := genStream(1, 0, 64, priorities)
	rec := callerRec{shared: &recorder{}}
	closedLoop(clk, &sc, c, stream, 0, 4, &rec)
	var total int64
	for slot, counts := range rec.counts {
		total += counts.attempted()
		// The op that flips the slot is filed under the new slot.
		want := int64(40)
		if slot == slotWarm {
			want = 39
		} else if slot == slotTail {
			want = 1
		}
		if counts.attempted() != want {
			t.Errorf("slot %d: %d ops, want %d", slot, counts.attempted(), want)
		}
	}
	if total != int64(c.ops) {
		t.Errorf("filed %d of %d ops", total, c.ops)
	}
	for seg := 0; seg < nSegments; seg++ {
		h := &rec.shared.segs[seg]
		if n := h[kInsert].n + h[kDelete].n; n != 10 { // 1 op in 4 is timed
			t.Errorf("segment %d: %d timed ops, want 10", seg, n)
		}
		if q := h[kInsert].Quantile(0.5); h[kInsert].n > 0 && !near(q, 1000, 0.01) {
			t.Errorf("segment %d: insert p50 %v, want the 1000 ns service time", seg, q)
		}
	}
	if rec.acked.n == 0 || rec.delivered.n == 0 {
		t.Error("the audit saw no ops")
	}
}

// Open loop: latency runs from the due time, so an op that waits behind a
// slow one is charged for the wait, and the wait shows as lateness.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	clk := &fakeClock{}
	bounds := slotBounds(0, 0, 1_000_000) // no warm-up, 1 ms segments
	s := newOpenSchedule(bounds, 10_000)  // one op every 100 us
	if s.due(3) != 300_000 || s.slotAt(999_999) != 1 || s.slotAt(1_000_000) != 2 || s.slotAt(1<<40) != slotTail {
		t.Fatalf("schedule: due(3) %d", s.due(3))
	}
	if s.scheduledBy(-1) != 0 || s.scheduledBy(0) != 1 || s.scheduledBy(250_000) != 3 {
		t.Fatal("scheduledBy")
	}
	// Service takes 150 us against a 100 us interval: the caller falls
	// 50 us further behind with every op.
	c := &fakeCaller{clk: clk, service: 150_000}
	ready := make(chan int64, 8)
	for g := int64(0); g < 4; g++ {
		ready <- g
	}
	close(ready)
	rec := &callerRec{shared: &recorder{}}
	var started atomic.Int64
	stream := opStream{opInsert | 1, opInsert | 2, opInsert | 3, opInsert | 4}
	openLoop(clk, &s, c, stream, 0, ready, &started, rec)
	// Op g begins at 150g, is due at 100g and ends at 150(g+1).
	lat, late := &rec.shared.segs[0][kInsert], &rec.shared.segs[0][kLate]
	if lat.n != 4 || late.n != 4 {
		t.Fatalf("recorded %d latencies, %d latenesses", lat.n, late.n)
	}
	if lat.max != 300_000 { // op 3: ends 600, due 300
		t.Errorf("max latency %d, want 300000", lat.max)
	}
	if late.max != 150_000 { // op 3: begins 450, due 300
		t.Errorf("max lateness %d, want 150000", late.max)
	}
	if late.countBelow(1) != 1 { // only op 0 began on time
		t.Errorf("%d ops on time, want 1", late.countBelow(1))
	}
	if rec.backlogMax != 1 { // when op 3 begins at 450, ops 0..4 are due and 4 have begun
		t.Errorf("backlog max %d, want 1", rec.backlogMax)
	}
	if got := rec.counts[1][kInsert]; got != 4 {
		t.Errorf("%d completions filed in segment 1", got)
	}
}

func TestPaceReleasesInOrderNoEarlierThanDue(t *testing.T) {
	clk := &fakeClock{}
	bounds := slotBounds(1000, 0, 100) // segments of 100 ns
	s := newOpenSchedule(bounds, 1e8)  // one op every 10 ns
	ready := make(chan int64, 10*nSegments)
	pace(clk, &s, ready)
	var n int64
	for g := range ready {
		if g != n {
			t.Fatalf("released op %d, want %d", g, n)
		}
		n++
	}
	if n != 10*nSegments { // 100 ns a segment at 10 ns an op
		t.Errorf("released %d ops, want %d", n, 10*nSegments)
	}
	if clk.t < s.due(n-1) || clk.t >= bounds[slotTail] {
		t.Errorf("pacer finished at %d", clk.t)
	}
}

func TestStreamsAreByteIdenticalPerSeed(t *testing.T) {
	a, b := genStream(42, 3, 4096, priorities), genStream(42, 3, 4096, priorities)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed and caller gave different streams")
	}
	if bytes.Equal(a, genStream(43, 3, 4096, priorities)) || bytes.Equal(a, genStream(42, 4, 4096, priorities)) {
		t.Fatal("another seed or caller gave the same stream")
	}
	var inserts int
	for i := range a {
		insert, pri := a.at(i)
		if insert {
			inserts++
		}
		if pri < 0 || pri >= priorities {
			t.Fatalf("priority %d", pri)
		}
	}
	if inserts != len(a)/2 {
		t.Errorf("%d inserts in %d ops: the stream would drift the queue size", inserts, len(a))
	}
	if ids := prefillIDs(7, 100); len(ids) != 100 || ids[0] != prefillIDs(7, 100)[0] || idPri(ids[5]) >= priorities {
		t.Error("prefill ids")
	}
}

func TestValueAndIDRoundTrip(t *testing.T) {
	id := makeID(37, 123456, 63)
	if idPri(id) != 63 {
		t.Errorf("priority %d", idPri(id))
	}
	if makeID(37, 123457, 63) == id || makeID(38, 123456, 63) == id {
		t.Error("ids collide")
	}
	v := putValue(make([]byte, valueLen), id)
	if got, ok := parseValue(v); !ok || got != id {
		t.Errorf("round trip %v %v", got, ok)
	}
	v[9] ^= 1
	if _, ok := parseValue(v); ok {
		t.Error("corrupt value accepted")
	}
	if _, ok := parseValue(v[:8]); ok {
		t.Error("short value accepted")
	}
}
