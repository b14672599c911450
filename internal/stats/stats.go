// Package stats provides the small set of sample statistics the
// benchmark harnesses report: count, mean, min/max and interpolated
// percentiles of a kept sample. Bucketed distributions, where only
// counts are kept, are obs.Histogram's.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds order statistics of a sample.
type Summary struct {
	Count              int
	Mean               float64
	Min, Max           float64
	P50, P90, P95, P99 float64
}

// Summarize computes a Summary; it sorts a copy and leaves xs untouched.
// An empty sample yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var sum float64
	for _, v := range s {
		sum += v
	}
	return Summary{
		Count: len(s),
		Mean:  sum / float64(len(s)),
		Min:   s[0],
		Max:   s[len(s)-1],
		P50:   Percentile(s, 0.50),
		P90:   Percentile(s, 0.90),
		P95:   Percentile(s, 0.95),
		P99:   Percentile(s, 0.99),
	}
}

// Percentile returns the p-quantile (0 <= p <= 1) of an already sorted
// sample using linear interpolation between closest ranks.
func Percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case n == 1:
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	rank := p * float64(n-1)
	lo := int(math.Floor(rank))
	frac := rank - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.1f min=%.1f p50=%.1f p90=%.1f p95=%.1f p99=%.1f max=%.1f",
		s.Count, s.Mean, s.Min, s.P50, s.P90, s.P95, s.P99, s.Max)
}
