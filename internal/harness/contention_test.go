package harness

import (
	"strings"
	"testing"

	"pq/internal/simpq"
)

func TestProfileContention(t *testing.T) {
	rep, err := ProfileContention(simpq.AlgSimpleTree, 16, 8, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.MeanAll <= 0 {
		t.Fatalf("no latency measured")
	}
	if len(rep.Structures) == 0 {
		t.Fatal("no structures aggregated")
	}
	seen := map[string]bool{}
	for i, s := range rep.Structures {
		seen[s.Structure] = true
		if s.Accesses <= 0 {
			t.Errorf("structure %q has no accesses", s.Structure)
		}
		if i > 0 {
			prev := rep.Structures[i-1]
			if prev.WaitCycles < s.WaitCycles || prev.WaitCycles == s.WaitCycles && prev.Structure > s.Structure {
				t.Errorf("structures out of order: %q (%d) before %q (%d)",
					prev.Structure, prev.WaitCycles, s.Structure, s.WaitCycles)
			}
		}
	}
	if !seen["mcs.tail"] {
		t.Errorf("SimpleTree profile missing mcs.tail: %v", rep.Structures)
	}
	var sb strings.Builder
	rep.Render(&sb)
	if !strings.Contains(sb.String(), "hottest words") {
		t.Fatalf("render incomplete:\n%s", sb.String())
	}
}

func TestProfileContentionFunnelsSpreadLoad(t *testing.T) {
	// The funnel queue must show its contention spread across funnel
	// layers/records rather than concentrated on one counter lock — the
	// paper's mechanism made visible.
	rep, err := ProfileContention(simpq.AlgFunnelTree, 32, 8, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	var funnelWords, total int
	for _, s := range rep.Structures {
		total += s.Words
		if strings.HasPrefix(s.Structure, "funnel") {
			funnelWords += s.Words
		}
	}
	if funnelWords == 0 {
		t.Fatalf("no funnel structures in profile: %+v", rep.Structures)
	}
}
