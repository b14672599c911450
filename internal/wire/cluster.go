package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
)

// Cluster map: the static routing table for multi-node pqd. Each node
// owns one or more half-open priority ranges; together the ranges of
// all nodes must partition [0, Priorities) exactly — no overlaps, no
// gaps — so every priority has exactly one owner and a client can
// route an INSERT without asking anyone. The map is versioned: nodes
// serve their map (version included) in STATS and on /statusz, and
// a node that receives an insert outside its own ranges NACKs it with
// TWrongNode carrying its map version, so a client holding a stale map
// learns both the right owner and that it should refetch.
//
// The map is JSON on disk (see LoadClusterMap) and JSON inside
// QueueStats.Cluster, deliberately the same shape:
//
//	{
//	  "version": 1,
//	  "priorities": 64,
//	  "nodes": [
//	    {"addr": "127.0.0.1:7931", "ranges": [{"lo": 0,  "hi": 21}]},
//	    {"addr": "127.0.0.1:7932", "ranges": [{"lo": 21, "hi": 43}]},
//	    {"addr": "127.0.0.1:7933", "ranges": [{"lo": 43, "hi": 64}]}
//	  ]
//	}

// ClusterRange is one half-open priority interval [Lo, Hi) owned by a
// node.
type ClusterRange struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// ClusterNode is one pqd node: its client-reachable address and the
// priority ranges it owns.
type ClusterNode struct {
	Addr   string         `json:"addr"`
	Ranges []ClusterRange `json:"ranges"`
}

// ClusterMap is the versioned routing table shared by every node and
// client of one cluster. Call Validate before use; it also builds the
// lookup index OwnerOf needs.
type ClusterMap struct {
	Version    uint64        `json:"version"`
	Priorities int           `json:"priorities"`
	Nodes      []ClusterNode `json:"nodes"`

	// index is the validated routing table: ranges sorted by Lo, each
	// carrying its owning node's position in Nodes. Built by Validate,
	// never serialized.
	index []ownedRange
}

type ownedRange struct {
	lo, hi int
	node   int
}

// Validate checks the map invariants and builds the OwnerOf index:
// version >= 1, at least one node, unique non-empty addresses,
// well-formed ranges, and the ranges of all nodes together partition
// [0, Priorities) with no overlap and no gap.
func (m *ClusterMap) Validate() error {
	if m.Version < 1 {
		return errors.New("cluster map: version must be >= 1")
	}
	if m.Priorities < 1 {
		return fmt.Errorf("cluster map: priorities must be >= 1, got %d", m.Priorities)
	}
	if len(m.Nodes) == 0 {
		return errors.New("cluster map: no nodes")
	}
	seen := make(map[string]bool, len(m.Nodes))
	index := make([]ownedRange, 0, len(m.Nodes))
	for i, n := range m.Nodes {
		if n.Addr == "" {
			return fmt.Errorf("cluster map: node %d has no addr", i)
		}
		if seen[n.Addr] {
			return fmt.Errorf("cluster map: duplicate node addr %q", n.Addr)
		}
		seen[n.Addr] = true
		if len(n.Ranges) == 0 {
			return fmt.Errorf("cluster map: node %q owns no ranges", n.Addr)
		}
		for _, r := range n.Ranges {
			if r.Lo < 0 || r.Hi > m.Priorities || r.Lo >= r.Hi {
				return fmt.Errorf("cluster map: node %q has bad range [%d,%d) over %d priorities",
					n.Addr, r.Lo, r.Hi, m.Priorities)
			}
			index = append(index, ownedRange{lo: r.Lo, hi: r.Hi, node: i})
		}
	}
	sort.Slice(index, func(a, b int) bool { return index[a].lo < index[b].lo })
	at := 0
	for _, r := range index {
		if r.lo > at {
			return fmt.Errorf("cluster map: priorities [%d,%d) owned by no node", at, r.lo)
		}
		if r.lo < at {
			return fmt.Errorf("cluster map: ranges overlap at priority %d (%q claims [%d,%d))",
				r.lo, m.Nodes[r.node].Addr, r.lo, r.hi)
		}
		at = r.hi
	}
	if at != m.Priorities {
		return fmt.Errorf("cluster map: priorities [%d,%d) owned by no node", at, m.Priorities)
	}
	m.index = index
	return nil
}

// Clone deep-copies the map (nodes, ranges, and no index — Validate
// the clone before use). Sharing one *ClusterMap across goroutines is
// safe only after a single Validate; components that ingest a
// caller-supplied map clone it first so a later Validate elsewhere
// cannot race their reads.
func (m *ClusterMap) Clone() *ClusterMap {
	out := &ClusterMap{Version: m.Version, Priorities: m.Priorities, Nodes: make([]ClusterNode, len(m.Nodes))}
	for i, n := range m.Nodes {
		out.Nodes[i] = ClusterNode{Addr: n.Addr, Ranges: append([]ClusterRange(nil), n.Ranges...)}
	}
	return out
}

// OwnerOf returns the index into Nodes of the node owning priority
// pri. The map must have passed Validate; ok is false only for a
// priority outside [0, Priorities).
func (m *ClusterMap) OwnerOf(pri int) (node int, ok bool) {
	if pri < 0 || pri >= m.Priorities || m.index == nil {
		return 0, false
	}
	// Binary search: rightmost range with lo <= pri. The partition
	// invariant guarantees it contains pri.
	i := sort.Search(len(m.index), func(j int) bool { return m.index[j].lo > pri }) - 1
	return m.index[i].node, true
}

// NodeIndex returns the position in Nodes of the node with the given
// address, or -1.
func (m *ClusterMap) NodeIndex(addr string) int {
	for i, n := range m.Nodes {
		if n.Addr == addr {
			return i
		}
	}
	return -1
}

// ParseClusterMap unmarshals and validates a JSON cluster map.
func ParseClusterMap(data []byte) (*ClusterMap, error) {
	var m ClusterMap
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("cluster map: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// LoadClusterMap reads and validates a JSON cluster map file.
func LoadClusterMap(path string) (*ClusterMap, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := ParseClusterMap(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// ClusterStats is the cluster block attached to QueueStats on a node
// running with a cluster map. It carries the full map — a client can
// bootstrap or refresh its routing table from any node's STATS — plus
// which node this is and how many misrouted inserts it has NACKed.
type ClusterStats struct {
	MapVersion uint64        `json:"map_version"`
	Priorities int           `json:"priorities"`
	Self       string        `json:"self"`
	Nodes      []ClusterNode `json:"nodes"`
	Misroutes  int64         `json:"misroutes"`
}

// Map reconstructs a validated ClusterMap from the stats block.
func (cs *ClusterStats) Map() (*ClusterMap, error) {
	m := &ClusterMap{Version: cs.MapVersion, Priorities: cs.Priorities, Nodes: cs.Nodes}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// WrongNode is the TWrongNode response payload: the receiving node does
// not own the priority of an INSERT (or of some item in an
// INSERT_BATCH). Owner is the address of the node that does own it
// under the server's map ("" if the priority is out of range for the
// whole map), and MapVersion lets a client detect that its own map is
// stale and refetch before re-routing.
type WrongNode struct {
	MapVersion uint64
	Owner      string
}

func (m WrongNode) Append(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, m.MapVersion)
	return appendStr(dst, m.Owner)
}

func DecodeWrongNode(p []byte) (WrongNode, error) {
	c := cursor{p}
	var m WrongNode
	var err error
	if m.MapVersion, err = c.u64(); err != nil {
		return m, err
	}
	if m.Owner, err = c.str(); err != nil {
		return m, err
	}
	return m, c.end()
}
