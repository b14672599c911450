package server

import (
	"fmt"
	"sync/atomic"

	"pq/internal/wire"
)

// Cluster mode: a pqd node given a cluster map enforces ownership of
// its priority ranges. INSERT/INSERT_BATCH traffic for a priority the
// node does not own is NACKed with TWrongNode naming the owning node
// and the server's map version — a client holding a stale map learns
// the right owner and that it should refetch — and nothing is admitted
// from a misrouted batch. DELETE_MIN is never ownership-checked: any
// node serves pops from its own ranges only (it holds no other
// items), and the cluster client merges pops across nodes.
//
// The map itself is served to clients inside STATS and on /statusz,
// so any node can bootstrap a client's routing table.

// clusterState is the immutable per-map state; Server.cluster swaps
// atomically so ownership checks never lock.
type clusterState struct {
	m         *wire.ClusterMap
	self      string
	selfIdx   int
	misroutes atomic.Int64
}

// owns reports whether this node owns pri under the map. False for
// priorities outside the map entirely (the caller's normal range check
// turns those into TError, not TWrongNode).
func (cl *clusterState) owns(pri int) bool {
	n, ok := cl.m.OwnerOf(pri)
	return ok && n == cl.selfIdx
}

// SetClusterMap puts the server in cluster mode (or replaces the map):
// it will serve the map via STATS//statusz and NACK inserts outside
// self's ranges. self must be one of the map's node addresses — the
// address clients reach this server by, which need not equal the
// listen address (e.g. 0.0.0.0 binds). Every registered queue must
// span exactly the map's priority space, so "queue priority out of
// range" and "priority owned by another node" stay distinct errors.
func (s *Server) SetClusterMap(m *wire.ClusterMap, self string) error {
	// Clone before validating: Validate builds the lookup index in
	// place, and the caller may install the same map on several
	// in-process servers (tests do).
	m = m.Clone()
	if err := m.Validate(); err != nil {
		return err
	}
	idx := m.NodeIndex(self)
	if idx < 0 {
		return fmt.Errorf("server: cluster map (version %d) has no node %q", m.Version, self)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, q := range s.queues {
		if q.spec.Priorities != m.Priorities {
			return fmt.Errorf("server: queue %q spans %d priorities but the cluster map covers %d; every queue on a cluster node must span the map's full priority space",
				q.spec.Name, q.spec.Priorities, m.Priorities)
		}
	}
	s.cluster.Store(&clusterState{m: m, self: self, selfIdx: idx})
	return nil
}

// ClusterMap reports the active map and self address ("" when not in
// cluster mode).
func (s *Server) ClusterMap() (*wire.ClusterMap, string) {
	cl := s.cluster.Load()
	if cl == nil {
		return nil, ""
	}
	return cl.m, cl.self
}

// clusterStats builds the STATS cluster block; nil when the server
// is not in cluster mode.
func (s *Server) clusterStats() *wire.ClusterStats {
	cl := s.cluster.Load()
	if cl == nil {
		return nil
	}
	return &wire.ClusterStats{
		MapVersion: cl.m.Version,
		Priorities: cl.m.Priorities,
		Self:       cl.self,
		Nodes:      cl.m.Nodes,
		Misroutes:  cl.misroutes.Load(),
	}
}

// replyWrongNode NACKs a misrouted insert with the owning node's
// address and the server's map version.
func (s *Server) replyWrongNode(w *respWriter, id uint32, cl *clusterState, pri int) error {
	cl.misroutes.Add(1)
	owner := ""
	if n, ok := cl.m.OwnerOf(pri); ok {
		owner = cl.m.Nodes[n].Addr
	}
	buf, off := w.beginFrame(wire.TWrongNode, id)
	buf = wire.WrongNode{MapVersion: cl.m.Version, Owner: owner}.Append(buf)
	return w.endFrame(buf, off)
}
