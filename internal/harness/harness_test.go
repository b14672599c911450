package harness

import (
	"fmt"
	"strings"
	"testing"
)

func TestAllExperimentsRegistered(t *testing.T) {
	want := []string{"fig5l", "fig5r", "fig6", "fig7", "fig8", "fig9", "ablate-cutoff", "ablate-adaption", "fairness", "stragglers", "steadystate", "sensitivity"}
	got := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.PaperRef == "" || e.Run == nil || e.Render == nil {
			t.Errorf("experiment %q incompletely defined", e.ID)
		}
		got[e.ID] = true
	}
	for _, id := range want {
		if !got[id] {
			t.Errorf("experiment %q missing", id)
		}
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("fig7"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestWriteAligned(t *testing.T) {
	var sb strings.Builder
	writeAligned(&sb, []string{"a", "bbb"}, [][]string{{"111", "2"}})
	out := sb.String()
	if !strings.Contains(out, "a") || !strings.Contains(out, "111") {
		t.Fatalf("unexpected table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header+separator+row, got %d lines", len(lines))
	}
}

func TestWriteCSV(t *testing.T) {
	var sb strings.Builder
	WriteCSV(&sb, []Point{{Algorithm: "X", Procs: 4, Pris: 8, X: 4}})
	out := sb.String()
	if !strings.HasPrefix(out, "algorithm,procs") {
		t.Fatalf("missing header: %q", out)
	}
	if !strings.Contains(out, "X,4,8,4") {
		t.Fatalf("missing row: %q", out)
	}
}

func TestTinyExperimentRunsAndRenders(t *testing.T) {
	// Run the cutoff ablation at minimal scale end-to-end; it exercises
	// RunWorkload, DriveWorkload, and the render path.
	if testing.Short() {
		t.Skip("runs a 256-processor simulation")
	}
	e, err := ByID("fig6")
	if err != nil {
		t.Fatal(err)
	}
	// Shrink further: monkey-level scale.
	pts, err := e.Run(0.01, func(string) {})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("no points")
	}
	var sb strings.Builder
	e.Render(&sb, pts)
	if !strings.Contains(sb.String(), "SimpleLinear") {
		t.Fatalf("render missing series:\n%s", sb.String())
	}
	for _, p := range pts {
		if p.Result.MeanAll <= 0 {
			t.Errorf("point %s/P=%d has non-positive latency", p.Algorithm, p.Procs)
		}
	}
}

func TestSeriesTable(t *testing.T) {
	var sb strings.Builder
	pts := []Point{
		{Algorithm: "A", X: 1},
		{Algorithm: "A", X: 2},
		{Algorithm: "B", X: 1},
	}
	pts[0].Result.MeanAll = 10
	pts[1].Result.MeanAll = 20
	pts[2].Result.MeanAll = 30
	seriesTable(&sb, pts, "x", func(x float64) string { return "v" })
	out := sb.String()
	if !strings.Contains(out, "A") || !strings.Contains(out, "B") {
		t.Fatalf("missing columns:\n%s", out)
	}
	if !strings.Contains(out, "-") {
		t.Fatalf("missing gap marker for B at x=2:\n%s", out)
	}
}

func TestSweepKeepsAddOrderAndEarliestError(t *testing.T) {
	var s sweep[int]
	for i := range 50 {
		s.add(func() (int, error) { return i * i, nil })
	}
	got, err := s.run(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result %d = %d, want %d: results are not in add order", i, v, i*i)
		}
	}

	var failing sweep[int]
	var labels []string
	for i := range 50 {
		failing.label(fmt.Sprint(i))
		failing.add(func() (int, error) {
			if i >= 7 {
				return 0, fmt.Errorf("point %d", i)
			}
			return i, nil
		})
	}
	_, err = failing.run(func(msg string) { labels = append(labels, msg) })
	if err == nil || err.Error() != "point 7" {
		t.Fatalf("err = %v, want the earliest failing point's", err)
	}
	if len(labels) < 8 || len(labels) == 50 {
		t.Fatalf("%d points started, want the sweep to stop soon after the first failure", len(labels))
	}
}
