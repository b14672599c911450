package plot

import (
	"strings"
	"testing"

	"pq/internal/obs"
	"pq/internal/stats"
)

func TestLatencyHistogram(t *testing.T) {
	h := obs.NewHistogram(1, 3, 5) // bounds 8, 16, 32 + overflow
	xs := []float64{5, 15, 15, 35, 100}
	for _, v := range xs {
		h.Observe(0, int64(v))
	}
	var sb strings.Builder
	LatencyHistogram(&sb, "insert", h.Snapshot(), stats.Summarize(xs))
	// The header's quantiles are the sample's exact ones (the buckets
	// would interpolate p50 = 14 and cap p95 and p99 at their last
	// bound, 32); one row per bucket (3 bounds + overflow), bars scaled
	// to the fullest bucket.
	const want = "insert  (n=5  exact p50=15  p95=87  p99=97 cycles)\n" +
		"        <      8 |####################                     1\n" +
		"       8..    16 |######################################## 2\n" +
		"      16..    32 |                                         0\n" +
		"       >=     32 |######################################## 2\n"
	if got := sb.String(); got != want {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}
}

func TestLatencyHistogramEmpty(t *testing.T) {
	var sb strings.Builder
	LatencyHistogram(&sb, "none", obs.NewHistogram(1, 1, 2).Snapshot(), stats.Summary{})
	if !strings.Contains(sb.String(), "(empty)") {
		t.Fatalf("empty histogram not flagged:\n%s", sb.String())
	}
}

func TestMetricsTable(t *testing.T) {
	var sb strings.Builder
	MetricsTable(&sb, []string{"A", "B"}, []map[string]float64{
		{"combines": 10, "ratio": 0.512345},
		{"combines": 3},
	})
	out := sb.String()
	if !strings.Contains(out, "combines") {
		t.Fatalf("metric row missing:\n%s", out)
	}
	if !strings.Contains(out, "0.512") {
		t.Fatalf("float formatting wrong:\n%s", out)
	}
	if !strings.Contains(out, "-") {
		t.Fatalf("missing-cell placeholder absent:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if !strings.HasPrefix(lines[0], "metric") {
		t.Fatalf("header row wrong: %q", lines[0])
	}
}
