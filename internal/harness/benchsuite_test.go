package harness

import (
	"reflect"
	"testing"

	"pq/internal/core"
)

// TestBenchSuiteRoundTrip generates a small suite and checks it covers
// every algorithm, in order, with totals the -metrics report can print.
func TestBenchSuiteRoundTrip(t *testing.T) {
	runs, err := RunBenchSuite(nil, 8, 8, 0.25, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != len(core.Algorithms) {
		t.Fatalf("runs = %d, want %d", len(runs), len(core.Algorithms))
	}
	for i, r := range runs {
		if r.Algorithm != core.Algorithms[i] {
			t.Fatalf("run %d is %s, want %s", i, r.Algorithm, core.Algorithms[i])
		}
		if r.InsertSummary.Count != r.Inserts || r.DeleteSummary.Count != r.Deletes {
			t.Errorf("%s: latency counts (%d,%d) disagree with op counts (%d,%d)",
				r.Algorithm, r.InsertSummary.Count, r.DeleteSummary.Count, r.Inserts, r.Deletes)
		}
		if r.Stats.FinalTime <= 0 || r.Stats.Events <= 0 || r.Stats.MemOps <= 0 {
			t.Errorf("%s: sim totals not populated", r.Algorithm)
		}
		if len(r.Internals) == 0 {
			t.Errorf("%s: no internals metrics", r.Algorithm)
		}
	}
}

// TestBenchSuiteDeterministic asserts two suite runs produce identical
// results (same default seeds throughout).
func TestBenchSuiteDeterministic(t *testing.T) {
	a, err := RunBenchSuite(nil, 8, 8, 0.25, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunBenchSuite(nil, 8, 8, 0.25, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same-configuration suites differ")
	}
}
