package plot

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"pq/internal/obs"
	"pq/internal/stats"
)

// LatencyHistogram renders one latency histogram snapshot as a
// horizontal bar chart, one row per bucket, with counts in the rows and
// the run's exact p50/p95/p99 in the header, taken from the summary of
// the same samples rather than interpolated inside the buckets.
func LatencyHistogram(w io.Writer, title string, h obs.HistSnapshot, exact stats.Summary) {
	fmt.Fprintf(w, "%s  (n=%d  exact p50=%.0f  p95=%.0f  p99=%.0f cycles)\n",
		title, h.Count, exact.P50, exact.P95, exact.P99)
	if h.Count == 0 {
		fmt.Fprintln(w, "  (empty)")
		return
	}
	bounds := h.Bounds
	maxCount := slices.Max(h.Counts)
	const barWidth = 40
	for i, c := range h.Counts {
		var label string
		switch {
		case i == 0:
			label = fmt.Sprintf("      < %6.0f", bounds[0])
		case i == len(bounds):
			label = fmt.Sprintf("     >= %6.0f", bounds[len(bounds)-1])
		default:
			label = fmt.Sprintf("%6.0f..%6.0f", bounds[i-1], bounds[i])
		}
		bar := int(c * barWidth / maxCount)
		if c > 0 && bar == 0 {
			bar = 1 // nonzero buckets must be visible
		}
		fmt.Fprintf(w, "  %s |%-*s %d\n", label, barWidth, strings.Repeat("#", bar), c)
	}
}

// MetricsTable renders per-algorithm internals counters as an aligned
// table: one row per metric name (union over algorithms, sorted), one
// column per algorithm. Missing cells print as "-".
func MetricsTable(w io.Writer, algs []string, metrics []map[string]float64) {
	nameSet := map[string]bool{}
	for _, m := range metrics {
		for k := range m {
			nameSet[k] = true
		}
	}
	names := make([]string, 0, len(nameSet))
	for k := range nameSet {
		names = append(names, k)
	}
	sort.Strings(names)

	rows := make([][]string, 0, len(names)+1)
	header := append([]string{"metric"}, algs...)
	rows = append(rows, header)
	for _, name := range names {
		row := []string{name}
		for _, m := range metrics {
			if v, ok := m[name]; ok {
				row = append(row, formatMetric(v))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}

	widths := make([]int, len(header))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for ri, row := range rows {
		parts := make([]string, len(row))
		for i, cell := range row {
			if i == 0 {
				parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
			} else {
				parts[i] = fmt.Sprintf("%*s", widths[i], cell)
			}
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
		if ri == 0 {
			sep := make([]string, len(widths))
			for i, wd := range widths {
				sep[i] = strings.Repeat("-", wd)
			}
			fmt.Fprintln(w, strings.Join(sep, "  "))
		}
	}
}

// formatMetric prints counters as integers and ratios compactly.
func formatMetric(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.3g", v)
}
