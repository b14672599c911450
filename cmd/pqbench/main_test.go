package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunMissingExperiment(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Fatal("missing -experiment accepted")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-experiment", "nope"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunBadScale(t *testing.T) {
	if err := run([]string{"-experiment", "fig6", "-scale", "7"}); err == nil {
		t.Fatal("scale > 1 accepted")
	}
	if err := run([]string{"-experiment", "fig6", "-scale", "0"}); err == nil {
		t.Fatal("scale 0 accepted")
	}
}

func TestRunTinyExperimentWithCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	csv := filepath.Join(t.TempDir(), "out.csv")
	if err := run([]string{"-experiment", "fig6", "-scale", "0.01", "-q", "-csv", csv}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(b), "algorithm,procs") {
		t.Fatalf("csv missing header: %q", string(b)[:60])
	}
	if strings.Count(string(b), "\n") < 10 {
		t.Fatalf("csv has too few rows:\n%s", b)
	}
}

func TestRunContentionProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	if err := run([]string{"-contention", "SimpleTree", "-procs", "8", "-pris", "4", "-scale", "0.05"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-contention", "NoSuchAlg", "-procs", "8", "-pris", "4", "-scale", "0.05"}); err == nil {
		t.Fatal("unknown contention algorithm accepted")
	}
}

// TestRunContentionParsesName pins -contention to the one algorithm
// registry and the -scale check: any case of a name is accepted, an
// unknown one is refused with the valid names, and an out-of-range
// -scale fails before anything runs.
func TestRunContentionParsesName(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	if err := run([]string{"-contention", "funneltree", "-procs", "8", "-pris", "4", "-scale", "0.05"}); err != nil {
		t.Fatalf("lower-case name refused: %v", err)
	}
	err := run([]string{"-contention", "nope", "-procs", "8", "-pris", "4", "-scale", "0.05"})
	if err == nil || !strings.Contains(err.Error(), "valid: SingleLock,") {
		t.Fatalf("unknown name: %v, want an error listing the valid names", err)
	}
	for _, scale := range []string{"5", "-1", "0"} {
		if err := run([]string{"-contention", "FunnelTree", "-procs", "8", "-pris", "4", "-scale", scale}); err == nil || !strings.Contains(err.Error(), "-scale") {
			t.Fatalf("-contention with -scale %s: %v, want a -scale error", scale, err)
		}
	}
}

func TestRunWithPlot(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	if err := run([]string{"-experiment", "fig6", "-scale", "0.01", "-q", "-plot"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	if err := run([]string{"-metrics", "-procs", "8", "-pris", "4", "-scale", "0.1", "-q", "-plot"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := run([]string{"-trace", path, "-alg", "SimpleTree", "-procs", "8", "-pris", "4", "-scale", "0.1"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	if err := run([]string{"-trace", path, "-alg", "NoSuchAlg", "-procs", "8"}); err == nil {
		t.Fatal("unknown trace algorithm accepted")
	}
}
