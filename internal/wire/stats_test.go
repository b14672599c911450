package wire

import (
	"encoding/json"
	"testing"
)

func TestStatsRoundTripKeepsLatency(t *testing.T) {
	in := QueueStats{Queue: "q", StatsVersion: StatsVersion,
		Latency: &ServerLatencyStats{
			Insert:         Dist{Count: 5, Mean: 100, P50: 90, P90: 150, P99: 400},
			DeleteMinBatch: Dist{Count: 2, Mean: 7000, P50: 6000, P90: 9000, P99: 9000},
		},
		Durability: &DurabilityStats{
			FsyncPolicy:  "interval",
			FsyncLatency: &Dist{Count: 3, Mean: 1e6, P50: 9e5, P90: 1.4e6, P99: 2e6},
			GroupCommit:  &Dist{Count: 3, Mean: 4, P50: 3, P90: 8, P99: 8},
		}}
	doc, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out QueueStats
	if err := json.Unmarshal(doc, &out); err != nil {
		t.Fatal(err)
	}
	if out.Latency == nil || *out.Latency != *in.Latency {
		t.Fatalf("latency did not round-trip: %+v", out.Latency)
	}
	if out.Durability == nil || *out.Durability.FsyncLatency != *in.Durability.FsyncLatency ||
		*out.Durability.GroupCommit != *in.Durability.GroupCommit {
		t.Fatalf("durability distributions did not round-trip: %+v", out.Durability)
	}
}

func TestStatsRoundTripKeepsDurability(t *testing.T) {
	in := QueueStats{Queue: "q", StatsVersion: StatsVersion,
		Durability: &DurabilityStats{FsyncPolicy: "always", RecoveredItems: 3, ReplayedRecords: 9, TornTail: true}}
	doc, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out QueueStats
	if err := json.Unmarshal(doc, &out); err != nil {
		t.Fatal(err)
	}
	if out.Durability == nil || *out.Durability != *in.Durability {
		t.Fatalf("durability did not round-trip: %+v", out.Durability)
	}
}
