package harness

import (
	"strings"
	"testing"

	"pq/internal/core"
)

// TestChaosMatrixClassifiesEveryAlgorithm runs the full fault matrix at
// a tiny scale and checks the acceptance bar: every (plan, algorithm)
// cell gets a named outcome, crash-stop plans really crash processors,
// and no cell reports a safety violation in the surviving history.
func TestChaosMatrixClassifiesEveryAlgorithm(t *testing.T) {
	rep, err := RunChaos(0.25, func(string) {})
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(ChaosPlans()) * len(core.All())
	if len(rep.Cells) != wantCells {
		t.Fatalf("got %d cells, want %d", len(rep.Cells), wantCells)
	}
	for _, c := range rep.Cells {
		if c.Outcome == "" || strings.HasPrefix(c.Outcome, "error:") {
			t.Errorf("%s/%s: unclassified outcome %q", c.Plan, c.Algorithm, c.Outcome)
		}
		if c.SafetyViolations != 0 {
			t.Errorf("%s/%s: %d safety violations in surviving history", c.Plan, c.Algorithm, c.SafetyViolations)
		}
		if c.Plan == "crash-stop" && c.Crashed == 0 {
			t.Errorf("%s/%s: crash plan crashed nobody", c.Plan, c.Algorithm)
		}
		if c.Plan == "baseline" && c.Outcome != "survivors-progress" {
			t.Errorf("baseline/%s: outcome %q, want survivors-progress", c.Algorithm, c.Outcome)
		}
	}
	var sb strings.Builder
	rep.Render(&sb)
	for _, p := range ChaosPlans() {
		if !strings.Contains(sb.String(), p.Name) {
			t.Errorf("rendered report missing plan %q", p.Name)
		}
	}
}
