package harness

import (
	"encoding/json"
	"os"
	"testing"

	"pq/internal/simpq"
)

// TestBenchSuiteRoundTrip generates a small suite, serializes it, and
// checks the result validates and covers every algorithm.
func TestBenchSuiteRoundTrip(t *testing.T) {
	bf, results, err := RunBenchSuite(8, 8, 0.25, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := bf.Validate(); err != nil {
		t.Fatalf("generated suite does not validate: %v", err)
	}
	if len(bf.Runs) != len(simpq.Algorithms) {
		t.Fatalf("runs = %d, want %d", len(bf.Runs), len(simpq.Algorithms))
	}
	if len(results) != len(bf.Runs) {
		t.Fatalf("raw results = %d, want %d", len(results), len(bf.Runs))
	}
	data, err := json.Marshal(bf)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ValidateBenchJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Runs[0].Algorithm != bf.Runs[0].Algorithm {
		t.Fatalf("round trip scrambled runs")
	}
}

// TestBenchSuiteDeterministic asserts two suite runs produce identical
// documents (same default seeds throughout).
func TestBenchSuiteDeterministic(t *testing.T) {
	a, _, err := RunBenchSuite(8, 8, 0.25, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := RunBenchSuite(8, 8, 0.25, nil)
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatal("same-configuration suites differ")
	}
}

// TestValidateCatchesProblems exercises the validator's error paths.
func TestValidateCatchesProblems(t *testing.T) {
	if _, err := ValidateBenchJSON([]byte(`{`)); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := ValidateBenchJSON([]byte(`{"schema":"other/v9"}`)); err == nil {
		t.Error("wrong schema accepted")
	}
	bf, _, err := RunBenchSuite(4, 4, 0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	bf.Runs = bf.Runs[:len(bf.Runs)-1]
	if err := bf.Validate(); err == nil {
		t.Error("missing algorithm accepted")
	}
}

// TestValidateSuiteKinds exercises the native-suite validation
// rules: per-run procs allow repeated algorithms, wall-clock
// throughput is required, and sim-only checks are skipped.
func TestValidateSuiteKinds(t *testing.T) {
	run := func(procs int) BenchRun {
		return BenchRun{
			Algorithm:           "FunnelTree",
			Procs:               procs,
			Inserts:             10,
			Deletes:             8,
			FailedDeletes:       2,
			ThroughputOpsPerSec: 123,
			Insert:              BenchLatency{Count: 10},
			Delete:              BenchLatency{Count: 10},
		}
	}
	bf := &BenchFile{
		Schema: BenchSchema, Suite: SuiteNative,
		Procs: 8, Priorities: 16, Scale: 1,
		Runs: []BenchRun{run(1), run(2)},
	}
	if err := bf.Validate(); err != nil {
		t.Fatalf("native suite rejected: %v", err)
	}

	dup := *bf
	dup.Runs = []BenchRun{run(1), run(1)}
	if err := dup.Validate(); err == nil {
		t.Error("duplicate algorithm+procs accepted")
	}

	noThr := *bf
	r := run(4)
	r.ThroughputOpsPerSec = 0
	noThr.Runs = []BenchRun{r}
	if err := noThr.Validate(); err == nil {
		t.Error("native run without wall-clock throughput accepted")
	}

	mismatch := *bf
	r = run(4)
	r.Insert.Count = 99
	mismatch.Runs = []BenchRun{r}
	if err := mismatch.Validate(); err == nil {
		t.Error("latency/op count mismatch accepted")
	}

	bogus := *bf
	bogus.Suite = "quantum"
	if err := bogus.Validate(); err == nil {
		t.Error("unknown suite accepted")
	}
}

// TestBenchJSONFile validates an externally produced file named by the
// BENCH_JSON environment variable — the CI smoke step runs pqbench and
// then this test against its output.
func TestBenchJSONFile(t *testing.T) {
	path := os.Getenv("BENCH_JSON")
	if path == "" {
		t.Skip("BENCH_JSON not set")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bf, err := ValidateBenchJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("validated %s: %d runs at %d procs", path, len(bf.Runs), bf.Procs)
}
