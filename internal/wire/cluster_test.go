package wire

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func rng(lo, hi int) ClusterRange { return ClusterRange{Lo: lo, Hi: hi} }

// TestClusterMapValidate is the table of map-shape rules: the ranges of
// all nodes must partition [0, Priorities) exactly, addresses must be
// unique and non-empty, and the map must carry a version.
func TestClusterMapValidate(t *testing.T) {
	cases := []struct {
		name    string
		m       ClusterMap
		wantErr string // substring; "" = valid
	}{
		{
			name: "single node owning everything",
			m: ClusterMap{Version: 1, Priorities: 64, Nodes: []ClusterNode{
				{Addr: "a:1", Ranges: []ClusterRange{rng(0, 64)}},
			}},
		},
		{
			name: "three-way split",
			m: ClusterMap{Version: 3, Priorities: 64, Nodes: []ClusterNode{
				{Addr: "a:1", Ranges: []ClusterRange{rng(0, 21)}},
				{Addr: "b:2", Ranges: []ClusterRange{rng(21, 43)}},
				{Addr: "c:3", Ranges: []ClusterRange{rng(43, 64)}},
			}},
		},
		{
			name: "one node, multiple discontiguous ranges",
			m: ClusterMap{Version: 1, Priorities: 16, Nodes: []ClusterNode{
				{Addr: "a:1", Ranges: []ClusterRange{rng(0, 4), rng(12, 16)}},
				{Addr: "b:2", Ranges: []ClusterRange{rng(4, 12)}},
			}},
		},
		{
			name: "overlapping ranges rejected",
			m: ClusterMap{Version: 1, Priorities: 64, Nodes: []ClusterNode{
				{Addr: "a:1", Ranges: []ClusterRange{rng(0, 33)}},
				{Addr: "b:2", Ranges: []ClusterRange{rng(32, 64)}},
			}},
			wantErr: "overlap",
		},
		{
			name: "gap between ranges rejected",
			m: ClusterMap{Version: 1, Priorities: 64, Nodes: []ClusterNode{
				{Addr: "a:1", Ranges: []ClusterRange{rng(0, 30)}},
				{Addr: "b:2", Ranges: []ClusterRange{rng(32, 64)}},
			}},
			wantErr: "owned by no node",
		},
		{
			name: "gap at the top rejected",
			m: ClusterMap{Version: 1, Priorities: 64, Nodes: []ClusterNode{
				{Addr: "a:1", Ranges: []ClusterRange{rng(0, 60)}},
			}},
			wantErr: "owned by no node",
		},
		{
			name: "gap at the bottom rejected",
			m: ClusterMap{Version: 1, Priorities: 64, Nodes: []ClusterNode{
				{Addr: "a:1", Ranges: []ClusterRange{rng(1, 64)}},
			}},
			wantErr: "owned by no node",
		},
		{
			name: "inverted range rejected",
			m: ClusterMap{Version: 1, Priorities: 64, Nodes: []ClusterNode{
				{Addr: "a:1", Ranges: []ClusterRange{rng(10, 10)}},
			}},
			wantErr: "bad range",
		},
		{
			name: "range past priorities rejected",
			m: ClusterMap{Version: 1, Priorities: 64, Nodes: []ClusterNode{
				{Addr: "a:1", Ranges: []ClusterRange{rng(0, 65)}},
			}},
			wantErr: "bad range",
		},
		{
			name: "duplicate addr rejected",
			m: ClusterMap{Version: 1, Priorities: 64, Nodes: []ClusterNode{
				{Addr: "a:1", Ranges: []ClusterRange{rng(0, 32)}},
				{Addr: "a:1", Ranges: []ClusterRange{rng(32, 64)}},
			}},
			wantErr: "duplicate",
		},
		{
			name: "empty addr rejected",
			m: ClusterMap{Version: 1, Priorities: 64, Nodes: []ClusterNode{
				{Addr: "", Ranges: []ClusterRange{rng(0, 64)}},
			}},
			wantErr: "no addr",
		},
		{
			name: "node with no ranges rejected",
			m: ClusterMap{Version: 1, Priorities: 64, Nodes: []ClusterNode{
				{Addr: "a:1", Ranges: []ClusterRange{rng(0, 64)}},
				{Addr: "b:2"},
			}},
			wantErr: "owns no ranges",
		},
		{
			name:    "no nodes rejected",
			m:       ClusterMap{Version: 1, Priorities: 64},
			wantErr: "no nodes",
		},
		{
			name: "version zero rejected",
			m: ClusterMap{Priorities: 64, Nodes: []ClusterNode{
				{Addr: "a:1", Ranges: []ClusterRange{rng(0, 64)}},
			}},
			wantErr: "version",
		},
		{
			name: "zero priorities rejected",
			m: ClusterMap{Version: 1, Nodes: []ClusterNode{
				{Addr: "a:1", Ranges: []ClusterRange{rng(0, 1)}},
			}},
			wantErr: "priorities",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.m.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestClusterMapOwnerOf checks the routing lookup across range
// boundaries, including a node owning discontiguous ranges.
func TestClusterMapOwnerOf(t *testing.T) {
	m := ClusterMap{Version: 1, Priorities: 16, Nodes: []ClusterNode{
		{Addr: "a:1", Ranges: []ClusterRange{rng(0, 4), rng(12, 16)}},
		{Addr: "b:2", Ranges: []ClusterRange{rng(4, 12)}},
	}}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	for pri, want := range map[int]int{0: 0, 3: 0, 4: 1, 11: 1, 12: 0, 15: 0} {
		got, ok := m.OwnerOf(pri)
		if !ok || got != want {
			t.Errorf("OwnerOf(%d) = %d, %v; want %d, true", pri, got, ok, want)
		}
	}
	for _, pri := range []int{-1, 16, 1000} {
		if _, ok := m.OwnerOf(pri); ok {
			t.Errorf("OwnerOf(%d) = ok, want out of range", pri)
		}
	}
}

// TestClusterMapJSONRoundTrip: the on-disk format survives a marshal
// cycle and ParseClusterMap validates what it parses.
func TestClusterMapJSONRoundTrip(t *testing.T) {
	m := &ClusterMap{Version: 7, Priorities: 64, Nodes: []ClusterNode{
		{Addr: "a:1", Ranges: []ClusterRange{rng(0, 32)}},
		{Addr: "b:2", Ranges: []ClusterRange{rng(32, 64)}},
	}}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseClusterMap(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 7 || got.Priorities != 64 || len(got.Nodes) != 2 {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	if n, ok := got.OwnerOf(40); !ok || got.Nodes[n].Addr != "b:2" {
		t.Fatalf("parsed map does not route: OwnerOf(40) = %d, %v", n, ok)
	}
	if _, err := ParseClusterMap([]byte(`{"version":1,"priorities":8,"nodes":[{"addr":"a:1","ranges":[{"lo":0,"hi":4}]}]}`)); err == nil {
		t.Fatal("ParseClusterMap accepted a gapped map")
	}
}

// TestWrongNodeRoundTrip pins the TWrongNode payload encoding.
func TestWrongNodeRoundTrip(t *testing.T) {
	for _, m := range []WrongNode{
		{MapVersion: 1, Owner: "127.0.0.1:7931"},
		{MapVersion: 1<<40 + 3, Owner: ""},
	} {
		got, err := DecodeWrongNode(m.Append(nil))
		if err != nil {
			t.Fatalf("decode %+v: %v", m, err)
		}
		if got != m {
			t.Fatalf("round trip: got %+v want %+v", got, m)
		}
	}
	if _, err := DecodeWrongNode([]byte{1, 2, 3}); err == nil {
		t.Fatal("truncated WrongNode decoded")
	}
	// The fuzzer's frame-level decode knows the type.
	f := Frame{Type: TWrongNode, ID: 9, Payload: WrongNode{MapVersion: 2, Owner: "x:1"}.Append(nil)}
	if re, err := reencode(f); err != nil || !bytes.Equal(re, f.Payload) {
		t.Fatalf("reencode(TWrongNode) = %x, %v; want %x", re, err, f.Payload)
	}
	if TWrongNode.String() != "WRONG_NODE" {
		t.Fatalf("TWrongNode.String() = %q", TWrongNode.String())
	}
}

// TestStatsClusterBlockCompat: the cluster block round-trips the full
// map through ClusterStats.Map.
func TestStatsClusterBlockCompat(t *testing.T) {
	st := QueueStats{Queue: "q", StatsVersion: StatsVersion, Cluster: &ClusterStats{
		MapVersion: 5, Priorities: 8, Self: "b:2", Misroutes: 3,
		Nodes: []ClusterNode{
			{Addr: "a:1", Ranges: []ClusterRange{rng(0, 4)}},
			{Addr: "b:2", Ranges: []ClusterRange{rng(4, 8)}},
		},
	}}
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var got QueueStats
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Cluster == nil || got.Cluster.MapVersion != 5 || got.Cluster.Self != "b:2" || got.Cluster.Misroutes != 3 {
		t.Fatalf("cluster block lost in round trip: %+v", got.Cluster)
	}
	m, err := got.Cluster.Map()
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := m.OwnerOf(6); !ok || m.Nodes[n].Addr != "b:2" {
		t.Fatalf("reconstructed map does not route: %d, %v", n, ok)
	}
}
