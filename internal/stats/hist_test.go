package stats_test

import (
	"sort"
	"strings"
	"testing"

	"pq/internal/obs"
	"pq/internal/plot"
	"pq/internal/stats"
)

// The bucketed latency distribution the harnesses report is
// obs.Histogram's; these tests hold it to the exact sample statistics
// of this package on the same observations.

// observe records xs into a one-stripe histogram with bounds
// 2^minShift .. 2^maxShift and returns its snapshot.
func observe(minShift, maxShift int, xs []float64) obs.HistSnapshot {
	h := obs.NewHistogram(1, minShift, maxShift)
	for _, v := range xs {
		h.Observe(0, int64(v))
	}
	return h.Snapshot()
}

func TestHistogram(t *testing.T) {
	xs := []float64{5, 50, 500, 5000, 7, 70}
	s := observe(4, 7, xs) // bounds 16, 32, 64, 128 + overflow
	sum := stats.Summarize(xs)
	if int(s.Count) != sum.Count {
		t.Fatalf("Count = %d, want %d", s.Count, sum.Count)
	}
	if s.Mean() != sum.Mean {
		t.Fatalf("Mean = %g, want the sample's %g", s.Mean(), sum.Mean)
	}
	want := []uint64{2, 0, 1, 1, 2}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], w)
		}
	}
	var sb strings.Builder
	plot.LatencyHistogram(&sb, "h", s, sum)
	out := sb.String()
	if !strings.Contains(out, "<     16") || !strings.Contains(out, ">=    128") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestHistogramEmpty(t *testing.T) {
	s := observe(1, 2, nil)
	sum := stats.Summarize(nil)
	if s.Count != 0 || s.Mean() != sum.Mean || s.Quantile(0.5) != sum.P50 {
		t.Fatalf("empty snapshot: Count %d Mean %g p50 %g, want all 0", s.Count, s.Mean(), s.Quantile(0.5))
	}
	var sb strings.Builder
	plot.LatencyHistogram(&sb, "none", s, sum)
	if !strings.Contains(sb.String(), "(empty)") {
		t.Fatalf("empty render:\n%s", sb.String())
	}
}

func TestHistogramAccessors(t *testing.T) {
	h := obs.NewHistogram(1, 3, 4) // bounds 8, 16 + overflow
	for _, v := range []int64{5, 10, 500} {
		h.Observe(0, v)
	}
	s := h.Snapshot()
	if len(s.Bounds) != 2 || s.Bounds[0] != 8 || s.Bounds[1] != 16 {
		t.Fatalf("Bounds = %v", s.Bounds)
	}
	if len(s.Counts) != 3 || s.Counts[0] != 1 || s.Counts[1] != 1 || s.Counts[2] != 1 {
		t.Fatalf("Counts = %v", s.Counts)
	}
	// A snapshot is a copy: mutating it must not corrupt the histogram.
	s.Bounds[0], s.Counts[0] = 999, 999
	if again := h.Snapshot(); again.Bounds[0] != 8 || again.Counts[0] != 1 {
		t.Fatalf("snapshot aliased the histogram: Bounds %v Counts %v", again.Bounds, again.Counts)
	}
}

func TestHistogramQuantile(t *testing.T) {
	// Power-of-two buckets resolve a quantile to within a factor of two:
	// on a spread sample every bucket estimate lies within that factor
	// of the exact interpolated percentile.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := observe(0, 12, xs)
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for _, p := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		exact := stats.Percentile(sorted, p)
		if q := s.Quantile(p); q < exact/2 || q > exact*2 {
			t.Errorf("p%g: bucket estimate %g, exact %g", 100*p, q, exact)
		}
	}

	// Bounds 8, 16, 32, 64: 100 values in [0,8) interpolate half-way up
	// the first bucket; p = 1 reports its bound.
	same := make([]float64, 100)
	for i := range same {
		same[i] = 5
	}
	if q := observe(3, 6, same).Quantile(0.5); q != 4 {
		t.Fatalf("p50 = %g, want 4", q)
	}
	if q := observe(3, 6, same).Quantile(1); q != 8 {
		t.Fatalf("p100 = %g, want 8", q)
	}
	// Half the mass moved to [16,32): p75 lands half-way up that bucket.
	for i := 0; i < 100; i++ {
		same = append(same, 20)
	}
	if q := observe(3, 6, same).Quantile(0.75); q != 24 {
		t.Fatalf("p75 = %g, want 24", q)
	}
	// Overflow observations report the last finite bound.
	if q := observe(3, 4, []float64{1000}).Quantile(0.99); q != 16 {
		t.Fatalf("overflow quantile = %g, want 16", q)
	}
}
