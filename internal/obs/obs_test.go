package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterStripesSum(t *testing.T) {
	c := NewCounter(8)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(uint64(g), 1)
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != 16000 {
		t.Fatalf("Load = %d, want 16000", got)
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram(1, 3, 6) // bounds 8, 16, 32, 64 + overflow
	cases := []struct {
		v      int64
		bucket int
	}{
		{0, 0}, {7, 0}, {8, 1}, {15, 1}, {16, 2}, {31, 2},
		{32, 3}, {63, 3}, {64, 4}, {1 << 30, 4}, {-5, 0},
	}
	for _, c := range cases {
		if got := h.bucketOf(c.v); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.bucket)
		}
	}
	for _, c := range cases {
		h.Observe(0, c.v)
	}
	s := h.Snapshot()
	if s.Count != uint64(len(cases)) {
		t.Fatalf("Count = %d, want %d", s.Count, len(cases))
	}
	want := []float64{8, 16, 32, 64}
	for i, b := range want {
		if s.Bounds[i] != b {
			t.Fatalf("Bounds = %v, want %v", s.Bounds, want)
		}
	}
	wantCounts := []uint64{3, 2, 2, 2, 2}
	for i, c := range wantCounts {
		if s.Counts[i] != c {
			t.Fatalf("Counts = %v, want %v", s.Counts, wantCounts)
		}
	}
	// A snapshot is a copy: writing into it leaves the histogram intact.
	s.Bounds[0], s.Counts[0] = 999, 999
	if again := h.Snapshot(); again.Bounds[0] != 8 || again.Counts[0] != 3 {
		t.Fatalf("snapshot aliased the histogram: Bounds %v Counts %v", again.Bounds, again.Counts)
	}
}

func TestHistogramQuantileAndMean(t *testing.T) {
	h := NewLatencyHistogram(4)
	// 1000 observations at ~1µs, 10 at ~1ms: p50 must sit near 1µs,
	// p99.5+ near 1ms.
	for i := 0; i < 1000; i++ {
		h.Observe(uint64(i), 1000)
	}
	for i := 0; i < 10; i++ {
		h.Observe(uint64(i), 1_000_000)
	}
	s := h.Snapshot()
	if p50 := s.Quantile(0.5); p50 < 256 || p50 > 2048 {
		t.Fatalf("p50 = %g, want ~1µs", p50)
	}
	if p999 := s.Quantile(0.999); p999 < 512_000 || p999 > 2_100_000 {
		t.Fatalf("p99.9 = %g, want ~1ms", p999)
	}
	wantMean := (1000*1000.0 + 10*1_000_000.0) / 1010.0
	if m := s.Mean(); math.Abs(m-wantMean) > 1 {
		t.Fatalf("Mean = %g, want %g", m, wantMean)
	}
	if empty := (HistSnapshot{}).Quantile(0.5); empty != 0 {
		t.Fatalf("empty quantile = %g, want 0", empty)
	}

	// Bounds 8, 16, 32, 64. Ranks interpolate linearly inside their
	// bucket, p = 1 reports the top of the last occupied bucket, and
	// ranks in the overflow bucket report the last finite bound.
	h = NewHistogram(1, 3, 6)
	for i := 0; i < 100; i++ {
		h.Observe(0, 5)
	}
	s = h.Snapshot()
	if q := s.Quantile(0.5); q != 4 {
		t.Fatalf("p50 of 100 values in [0,8) = %g, want 4 (half-way up the bucket)", q)
	}
	if q := s.Quantile(1); q != 8 {
		t.Fatalf("p100 = %g, want 8 (the first bucket's bound)", q)
	}
	for i := 0; i < 100; i++ {
		h.Observe(0, 20)
	}
	if q := h.Snapshot().Quantile(0.75); q != 24 {
		t.Fatalf("p75 = %g, want 24 (half-way up [16,32))", q)
	}
	h = NewHistogram(1, 3, 4)
	h.Observe(0, 1000)
	if q := h.Snapshot().Quantile(0.99); q != 16 {
		t.Fatalf("overflow quantile = %g, want 16 (the last finite bound)", q)
	}
}

// TestRecordPathAllocationFree is the acceptance gate for putting these
// on the serving hot path: Observe and Add must not allocate.
func TestRecordPathAllocationFree(t *testing.T) {
	c := NewCounter(8)
	h := NewLatencyHistogram(8)
	if n := testing.AllocsPerRun(1000, func() {
		c.Add(3, 1)
	}); n != 0 {
		t.Fatalf("Counter.Add allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		h.Observe(5, 12345)
	}); n != 0 {
		t.Fatalf("Histogram.Observe allocates %v/op, want 0", n)
	}
}

func TestPromWriter(t *testing.T) {
	var sb strings.Builder
	p := NewPromWriter(&sb)
	p.Header("pq_ops_total", "counter", "ops")
	p.Sample("pq_ops_total", Labels(map[string]string{"queue": "a\"b", "op": "insert"}), 42)

	h := NewHistogram(1, 3, 5) // bounds 8,16,32
	h.Observe(0, 4)
	h.Observe(0, 20)
	h.Observe(0, 100)
	p.Header("pq_lat", "histogram", "lat")
	p.Histogram("pq_lat", Labels(map[string]string{"queue": "q"}), h.Snapshot(), 1)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE pq_ops_total counter",
		`pq_ops_total{op="insert",queue="a\"b"} 42`,
		`pq_lat_bucket{queue="q",le="8"} 1`,
		`pq_lat_bucket{queue="q",le="32"} 2`,
		`pq_lat_bucket{queue="q",le="+Inf"} 3`,
		`pq_lat_sum{queue="q"} 124`,
		`pq_lat_count{queue="q"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	c := NewCounter(16)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		hint := uint64(0)
		for pb.Next() {
			hint++
			c.Add(hint, 1)
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewLatencyHistogram(16)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		hint := uint64(0)
		for pb.Next() {
			hint++
			h.Observe(hint, int64(hint)&0xfffff)
		}
	})
}
