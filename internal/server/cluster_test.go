package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pq"
	"pq/internal/order"
	"pq/internal/wire"
	"pq/pqclient"
)

// startCluster runs n in-process servers sharing one queue spec and an
// even split of the priority space, installs the map on every node, and
// returns the map.
func startCluster(t *testing.T, n int, spec QueueSpec) (*wire.ClusterMap, []*Server, []string) {
	t.Helper()
	servers := make([]*Server, n)
	addrs := make([]string, n)
	for i := range servers {
		cfg := Config{Concurrency: 8}
		if pq.IsRelaxed(spec.Algorithm) {
			cfg.AllowRelaxed = true
		}
		servers[i], addrs[i] = startServerCfg(t, cfg, spec)
	}
	m := evenClusterMap(1, spec.Priorities, addrs)
	for i, s := range servers {
		if err := s.SetClusterMap(m, addrs[i]); err != nil {
			t.Fatalf("SetClusterMap node %d: %v", i, err)
		}
	}
	return m, servers, addrs
}

// evenClusterMap splits [0,priorities) evenly across addrs in order.
func evenClusterMap(version uint64, priorities int, addrs []string) *wire.ClusterMap {
	n := len(addrs)
	m := &wire.ClusterMap{Version: version, Priorities: priorities}
	per := priorities / n
	for i, a := range addrs {
		lo := i * per
		hi := lo + per
		if i == n-1 {
			hi = priorities
		}
		m.Nodes = append(m.Nodes, wire.ClusterNode{Addr: a, Ranges: []wire.ClusterRange{{Lo: lo, Hi: hi}}})
	}
	if err := m.Validate(); err != nil {
		panic(err)
	}
	return m
}

func dialCluster(t *testing.T, m *wire.ClusterMap, tweak ...func(*pqclient.ClusterConfig)) *pqclient.ClusterClient {
	t.Helper()
	cfg := pqclient.ClusterConfig{Map: m, RequestTimeout: 10 * time.Second}
	for _, f := range tweak {
		f(&cfg)
	}
	cc, err := pqclient.DialCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cc.Close() })
	return cc
}

// TestClusterMisrouteNACK drives a plain (cluster-unaware) client at
// the wrong node directly: an insert for a priority the node does not
// own is NACKed with WRONG_NODE naming the true owner, a misrouted
// batch is NACKed whole with nothing admitted, an out-of-range priority
// stays a plain server error (not a misroute), and DELETE_MIN is never
// ownership-checked.
func TestClusterMisrouteNACK(t *testing.T) {
	spec := QueueSpec{Name: "jobs", Algorithm: pq.SimpleTree, Priorities: 30}
	m, servers, addrs := startCluster(t, 3, spec)
	ctx := context.Background()

	// Node 0 owns [0,10). Priority 15 belongs to node 1.
	cl := dialClient(t, addrs[0])
	err := cl.Insert(ctx, "jobs", 15, []byte("misrouted"))
	var wn *pqclient.WrongNodeError
	if !errors.As(err, &wn) {
		t.Fatalf("misrouted insert: got %v, want WrongNodeError", err)
	}
	if wn.Owner != addrs[1] || wn.MapVersion != m.Version {
		t.Fatalf("WrongNodeError = %+v, want owner %s map v%d", wn, addrs[1], m.Version)
	}

	// An owned insert on the same connection still works.
	if err := cl.Insert(ctx, "jobs", 3, []byte("routed")); err != nil {
		t.Fatalf("owned insert after NACK: %v", err)
	}

	// Batch with one misrouted member: NACKed whole, nothing admitted.
	// (The pooled client resends coalesced batches solo, so send an
	// explicit batch.)
	n, err := cl.InsertBatch(ctx, "jobs", []pqclient.Item{
		{Pri: 4, Value: []byte("a")},
		{Pri: 25, Value: []byte("b")}, // node 2's range
	})
	if !errors.As(err, &wn) {
		t.Fatalf("misrouted batch: accepted=%d err=%v, want WrongNodeError", n, err)
	}
	if n != 0 {
		t.Fatalf("misrouted batch admitted %d items, want 0", n)
	}
	if st, _ := servers[0].QueueStats("jobs"); st.Size != 1 {
		t.Fatalf("node 0 size after NACKed batch = %d, want 1", st.Size)
	}

	// Out-of-range priority: plain server error, not a misroute.
	err = cl.Insert(ctx, "jobs", 30, []byte("oob"))
	var se *pqclient.ServerError
	if !errors.As(err, &se) {
		t.Fatalf("out-of-range insert: got %v, want ServerError", err)
	}

	// DELETE_MIN serves whatever the node holds, ownership-free.
	it, ok, err := cl.DeleteMin(ctx, "jobs")
	if err != nil || !ok || it.Pri != 3 {
		t.Fatalf("DeleteMin on cluster node: it=%+v ok=%v err=%v", it, ok, err)
	}

	// Misroutes are counted and exported in the stats cluster block.
	st, _ := servers[0].QueueStats("jobs")
	if st.Cluster == nil {
		t.Fatal("cluster node stats missing cluster block")
	}
	if st.Cluster.Misroutes != 2 {
		t.Fatalf("misroutes = %d, want 2 (solo + batch)", st.Cluster.Misroutes)
	}
	if st.Cluster.Self != addrs[0] || st.Cluster.MapVersion != m.Version {
		t.Fatalf("cluster block identity: %+v", st.Cluster)
	}
}

// TestClusterClientRouting checks the cluster client sends every insert
// to its owner and merges delete-min across nodes.
func TestClusterClientRouting(t *testing.T) {
	spec := QueueSpec{Name: "jobs", Algorithm: pq.SimpleTree, Priorities: 30}
	_, servers, _ := startCluster(t, 3, spec)
	cc := dialCluster(t, mustMap(t, servers[0]))
	ctx := context.Background()

	for pri := 0; pri < 30; pri++ {
		if err := cc.Insert(ctx, "jobs", pri, []byte{byte(pri)}); err != nil {
			t.Fatalf("insert pri %d: %v", pri, err)
		}
	}
	// Each node holds exactly its band; no node saw a misroute.
	for i, s := range servers {
		st, _ := s.QueueStats("jobs")
		if st.Size != 10 {
			t.Fatalf("node %d size = %d, want 10", i, st.Size)
		}
		if st.Cluster.Misroutes != 0 {
			t.Fatalf("node %d misroutes = %d, want 0", i, st.Cluster.Misroutes)
		}
	}

	// Aggregate stats sum across nodes.
	st, err := cc.Stats(ctx, "jobs")
	if err != nil {
		t.Fatal(err)
	}
	if st.Inserts != 30 || st.Size != 30 {
		t.Fatalf("aggregate stats: inserts=%d size=%d, want 30/30", st.Inserts, st.Size)
	}

	// Batch spanning all three nodes: split per owner, all admitted.
	var batch []pqclient.Item
	for pri := 0; pri < 30; pri += 3 {
		batch = append(batch, pqclient.Item{Pri: pri, Value: []byte("b")})
	}
	if n, err := cc.InsertBatch(ctx, "jobs", batch); err != nil || n != len(batch) {
		t.Fatalf("spanning batch: accepted=%d err=%v, want %d", n, err, len(batch))
	}

	// DeleteMinBatch drains in global priority order.
	items, err := cc.DeleteMinBatch(ctx, "jobs", 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 40 {
		t.Fatalf("drained %d items, want 40", len(items))
	}
	for i := 1; i < len(items); i++ {
		if items[i].Pri < items[i-1].Pri {
			t.Fatalf("drain out of order at %d: %d after %d", i, items[i].Pri, items[i-1].Pri)
		}
	}
}

func mustMap(t *testing.T, s *Server) *wire.ClusterMap {
	t.Helper()
	m, _ := s.ClusterMap()
	if m == nil {
		t.Fatal("server has no cluster map")
	}
	return m
}

// TestClusterSingleNodeDegenerate pins the degenerate case: a one-node
// map routes everything to that node and behaves exactly like a plain
// client.
func TestClusterSingleNodeDegenerate(t *testing.T) {
	spec := QueueSpec{Name: "jobs", Algorithm: pq.SimpleTree, Priorities: 16}
	_, servers, _ := startCluster(t, 1, spec)
	cc := dialCluster(t, mustMap(t, servers[0]))
	ctx := context.Background()

	for i := 0; i < 50; i++ {
		if err := cc.Insert(ctx, "jobs", i%16, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	last := -1
	for i := 0; i < 50; i++ {
		it, ok, err := cc.DeleteMin(ctx, "jobs")
		if err != nil || !ok {
			t.Fatalf("pop %d: ok=%v err=%v", i, ok, err)
		}
		if it.Pri < last {
			t.Fatalf("single-node cluster broke strict order: %d after %d", it.Pri, last)
		}
		last = it.Pri
	}
	if _, ok, err := cc.DeleteMin(ctx, "jobs"); ok || err != nil {
		t.Fatalf("empty pop: ok=%v err=%v", ok, err)
	}
	st, _ := servers[0].QueueStats("jobs")
	if st.Cluster.Misroutes != 0 {
		t.Fatalf("single-node misroutes = %d", st.Cluster.Misroutes)
	}
}

// TestClusterMapVersionBump checks stale-map recovery end to end: a
// client bootstrapped with an obsolete v1 map (node A owns everything)
// inserts into what is now node B's range, gets WRONG_NODE carrying the
// v2 version from A, refreshes the map from A's stats, re-routes to B,
// and ends up holding v2.
func TestClusterMapVersionBump(t *testing.T) {
	spec := QueueSpec{Name: "jobs", Algorithm: pq.SimpleTree, Priorities: 20}
	srvA, addrA := startServerCfg(t, Config{Concurrency: 4}, spec)
	srvB, addrB := startServerCfg(t, Config{Concurrency: 4}, spec)

	// The deployed truth: v2, split ranges.
	m2 := evenClusterMap(2, 20, []string{addrA, addrB})
	if err := srvA.SetClusterMap(m2, addrA); err != nil {
		t.Fatal(err)
	}
	if err := srvB.SetClusterMap(m2, addrB); err != nil {
		t.Fatal(err)
	}

	// The client's stale view: v1, A owns everything.
	m1 := &wire.ClusterMap{Version: 1, Priorities: 20, Nodes: []wire.ClusterNode{
		{Addr: addrA, Ranges: []wire.ClusterRange{{Lo: 0, Hi: 20}}},
	}}
	cc := dialCluster(t, m1)
	ctx := context.Background()

	// Priority 15 is B's under v2; the stale client aims it at A.
	if err := cc.Insert(ctx, "jobs", 15, []byte("v")); err != nil {
		t.Fatalf("insert through stale map: %v", err)
	}
	if got := cc.MapVersion(); got != 2 {
		t.Fatalf("client map version after NACK = %d, want 2", got)
	}
	stB, _ := srvB.QueueStats("jobs")
	if stB.Size != 1 {
		t.Fatalf("node B size = %d, want the re-routed item", stB.Size)
	}
	stA, _ := srvA.QueueStats("jobs")
	if stA.Size != 0 {
		t.Fatalf("node A size = %d, want 0", stA.Size)
	}
	if stA.Cluster.Misroutes != 1 {
		t.Fatalf("node A misroutes = %d, want 1", stA.Cluster.Misroutes)
	}
}

// TestClusterExactlyOnceE2E hammers a 3-node cluster with concurrent
// cluster-client inserters and deleters, drains to empty, and proves
// every acked insert came back exactly once across node boundaries.
// Run with -race.
func TestClusterExactlyOnceE2E(t *testing.T) {
	spec := QueueSpec{Name: "jobs", Algorithm: pq.FunnelTree, Priorities: 48, Shards: 2}
	_, servers, _ := startCluster(t, 3, spec)
	m := mustMap(t, servers[0])

	const (
		producers = 4
		consumers = 4
		perProd   = 300
	)
	ctx := context.Background()

	var (
		mu      sync.Mutex
		acked   = make(map[uint64]bool)
		got     = make(map[uint64]int)
		nextVal atomic.Uint64
		wg      sync.WaitGroup
		stop    atomic.Bool
	)
	val := func(v uint64) []byte {
		b := make([]byte, 8)
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		return b
	}
	unval := func(b []byte) uint64 {
		var v uint64
		for i := 0; i < 8; i++ {
			v |= uint64(b[i]) << (8 * i)
		}
		return v
	}

	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			cc := dialCluster(t, m)
			for i := 0; i < perProd; i++ {
				v := nextVal.Add(1)
				if err := cc.Insert(ctx, "jobs", int(v%48), val(v)); err != nil {
					t.Errorf("producer %d insert: %v", p, err)
					return
				}
				mu.Lock()
				acked[v] = true
				mu.Unlock()
			}
		}(p)
	}

	for c := 0; c < consumers; c++ {
		cc := dialCluster(t, m)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for !stop.Load() {
				it, ok, err := cc.DeleteMin(ctx, "jobs")
				if err != nil {
					t.Errorf("consumer %d pop: %v", c, err)
					return
				}
				if !ok {
					time.Sleep(time.Millisecond)
					continue
				}
				mu.Lock()
				got[unval(it.Value)]++
				mu.Unlock()
			}
		}(c)
	}

	// Let producers finish, then signal consumers to stand down and
	// drain the remainder single-threaded through one cluster client.
	for nextVal.Load() < producers*perProd {
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	drainer := dialCluster(t, m)
	for {
		items, err := drainer.DeleteMinBatch(ctx, "jobs", 256)
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
		if len(items) == 0 {
			break
		}
		mu.Lock()
		for _, it := range items {
			got[unval(it.Value)]++
		}
		mu.Unlock()
	}

	if len(acked) != producers*perProd {
		t.Fatalf("acked %d inserts, want %d", len(acked), producers*perProd)
	}
	for v := range acked {
		switch got[v] {
		case 1:
		case 0:
			t.Errorf("acked item %d lost", v)
		default:
			t.Errorf("item %d delivered %d times", v, got[v])
		}
	}
	for v, n := range got {
		if !acked[v] {
			t.Errorf("alien item %d delivered %d times", v, n)
		}
	}
	// Cluster-wide conservation: aggregate inserts == deliveries.
	st, err := drainer.Stats(ctx, "jobs")
	if err != nil {
		t.Fatal(err)
	}
	if st.Size != 0 {
		t.Fatalf("aggregate size after full drain = %d, want 0", st.Size)
	}
}

// clusterPopHistory pops the cluster dry through pop, recording an
// order.Op per event against clock (a strictly increasing fake clock —
// the driver is single-threaded, so intervals are just [i, i+1)).
func clusterPopHistory(t *testing.T, history []order.Op, pop func() (pqclient.Item, bool, error)) []order.Op {
	t.Helper()
	now := int64(len(history)) * 2
	for {
		it, ok, err := pop()
		if err != nil {
			t.Fatalf("pop: %v", err)
		}
		op := order.Op{Kind: order.DeleteMin, Start: now, End: now + 1, OK: ok}
		now += 2
		if ok {
			op.Pri = it.Pri
			op.Val = uint64(it.Value[0]) | uint64(it.Value[1])<<8
		}
		history = append(history, op)
		if !ok {
			return history
		}
	}
}

// prefillStrictCluster builds a 3-node strict cluster, inserts k items
// into every node's band, and returns the insert history plus the map.
func prefillStrictCluster(t *testing.T, k int) ([]order.Op, *wire.ClusterMap) {
	t.Helper()
	spec := QueueSpec{Name: "jobs", Algorithm: pq.SimpleTree, Priorities: 30}
	_, servers, _ := startCluster(t, 3, spec)
	m := mustMap(t, servers[0])
	cc := dialCluster(t, m)
	ctx := context.Background()

	var history []order.Op
	val := uint64(0)
	now := int64(-2 * 3 * int64(k))
	for node := 0; node < 3; node++ {
		for i := 0; i < k; i++ {
			pri := node*10 + i%10
			val++
			b := []byte{byte(val), byte(val >> 8)}
			if err := cc.Insert(ctx, "jobs", pri, b); err != nil {
				t.Fatalf("prefill insert: %v", err)
			}
			history = append(history, order.Op{
				Kind: order.Insert, Pri: pri, Val: val, OK: true,
				Start: now, End: now + 1,
			})
			now += 2
		}
	}
	return history, m
}

// TestClusterDeleteMinStrict proves the cluster client's delete-min is
// strict for one caller at quiescence on a 3-node strict cluster: the
// sweep always pops the lowest-range non-empty node, which holds the
// cluster minimum. The full history (prefill + pop-to-empty) must
// satisfy order.Check — uniqueness, precedence, emptiness and priority
// order all exact, no rank budget.
func TestClusterDeleteMinStrict(t *testing.T) {
	const k = 40
	history, m := prefillStrictCluster(t, k)
	cc := dialCluster(t, m)
	ctx := context.Background()

	history = clusterPopHistory(t, history, func() (pqclient.Item, bool, error) {
		return cc.DeleteMin(ctx, "jobs")
	})

	pops := 0
	for _, op := range history {
		if op.Kind == order.DeleteMin && op.OK {
			pops++
		}
	}
	if pops != 3*k {
		t.Fatalf("popped %d items, want %d", pops, 3*k)
	}
	if vs := order.Check(history); len(vs) != 0 {
		t.Fatalf("cluster delete-min is not strict:\n%v", vs[0])
	}
}

// TestClusterDeleteMinNeverInserts pins the delete path's cost on a
// prefilled 3-node cluster, counted on the nodes: no DeleteMin ever
// admits an item (nothing is popped to be put back), and a pop costs
// one request frame while band 0 is non-empty, then one more per dry
// node below the band it is served from.
func TestClusterDeleteMinNeverInserts(t *testing.T) {
	const k = 20
	spec := QueueSpec{Name: "jobs", Algorithm: pq.SimpleTree, Priorities: 30}
	_, servers, _ := startCluster(t, 3, spec)
	cc := dialCluster(t, mustMap(t, servers[0]))
	ctx := context.Background()
	for i := 0; i < 3*k; i++ {
		if err := cc.Insert(ctx, "jobs", i%30, []byte{byte(i)}); err != nil {
			t.Fatalf("prefill insert: %v", err)
		}
	}
	counters := func() (inserts, frames int64) {
		for _, s := range servers {
			st, _ := s.QueueStats("jobs")
			inserts += st.Inserts
			frames += s.met.framesRead.Load()
		}
		return inserts, frames
	}

	for band := 0; band < 3; band++ {
		i0, f0 := counters()
		for i := 0; i < k; i++ {
			if _, ok, err := cc.DeleteMin(ctx, "jobs"); err != nil || !ok {
				t.Fatalf("band %d pop %d: ok=%v err=%v", band, i, ok, err)
			}
		}
		i1, f1 := counters()
		if i1 != i0 {
			t.Fatalf("band %d: %d DeleteMins admitted %d items on the nodes, want 0", band, k, i1-i0)
		}
		if want := int64(k * (band + 1)); f1-f0 != want {
			t.Fatalf("band %d: %d DeleteMins cost %d request frames, want %d", band, k, f1-f0, want)
		}
	}
}

// TestClusterDeleteMinNodeDown pins the rule that emptiness cannot be
// certified with a band unreachable: with the lowest-range node down,
// items on the other nodes are still delivered, and once they are gone
// the answer is the dead node's error, never "empty".
func TestClusterDeleteMinNodeDown(t *testing.T) {
	const k = 5
	spec := QueueSpec{Name: "jobs", Algorithm: pq.SimpleTree, Priorities: 30}
	_, servers, _ := startCluster(t, 3, spec)
	m := mustMap(t, servers[0])
	ctx := context.Background()
	filler := dialCluster(t, m)
	for i := 0; i < 2*k; i++ {
		if err := filler.Insert(ctx, "jobs", 10+i%20, []byte{byte(i)}); err != nil {
			t.Fatalf("prefill insert: %v", err)
		}
	}
	servers[0].Close()

	cc := dialCluster(t, m)
	seen := make(map[byte]bool)
	for i := 0; i < 2*k; i++ {
		it, ok, err := cc.DeleteMin(ctx, "jobs")
		if err != nil || !ok {
			t.Fatalf("pop %d with node 0 down: ok=%v err=%v", i, ok, err)
		}
		if seen[it.Value[0]] {
			t.Fatalf("pop %d delivered item %d twice", i, it.Value[0])
		}
		seen[it.Value[0]] = true
	}
	if it, ok, err := cc.DeleteMin(ctx, "jobs"); err == nil {
		t.Fatalf("DeleteMin with node 0 down and the rest dry: it=%+v ok=%v, want the node's error", it, ok)
	}
	if items, err := cc.DeleteMinBatch(ctx, "jobs", 8); err == nil {
		t.Fatalf("DeleteMinBatch with node 0 down and the rest dry: %d items, want the node's error", len(items))
	}
}

// TestClusterNaiveSinglePullUnbounded is the must-fail companion: a
// naive client that drains nodes highest-band-first (node 2, then 1,
// then 0) produces rank errors of up to 2k — its very first pop
// overtakes every item on nodes 0 and 1 — so even a rank budget of k,
// far looser than the strict order the sweep meets, must be violated.
// This is the test that keeps TestClusterDeleteMinStrict honest: if the
// checker ever stopped catching this, that test would prove nothing.
func TestClusterNaiveSinglePullUnbounded(t *testing.T) {
	const k = 40
	history, m := prefillStrictCluster(t, k)

	// Naive pull: per-node plain clients, worst node first.
	ctx := context.Background()
	clients := make([]*pqclient.Client, len(m.Nodes))
	for i, n := range m.Nodes {
		c, err := pqclient.Dial(pqclient.Config{Addr: n.Addr, RequestTimeout: 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}
	cur := len(clients) - 1
	history = clusterPopHistory(t, history, func() (pqclient.Item, bool, error) {
		for cur >= 0 {
			it, ok, err := clients[cur].DeleteMin(ctx, "jobs")
			if err != nil || ok {
				return it, ok, err
			}
			cur-- // this node is dry; move to the next-better band
		}
		return pqclient.Item{}, false, nil
	})

	vs := order.CheckRelaxed(history, order.RelaxedBound{MaxRank: k})
	if len(vs) == 0 {
		t.Fatalf("naive single-node pull passed rank bound %d; the checker lost its teeth", k)
	}
	for _, v := range vs {
		if v.Rule != "rank-error" {
			t.Fatalf("unexpected violation kind from naive pull: %v", v)
		}
	}
}

// TestCrossShardRankMerged is the regression test for the documented
// rank understatement of relaxed algorithms behind priority-range
// sharding: per-shard MultiQueues can't see better items living in
// other shards. The crossRank estimator must charge pops with the
// better-shard occupancy and relaxStats must merge those charges into
// the exported numbers. White-box: drives the estimator directly so
// the expected numbers are exact.
func TestCrossShardRankMerged(t *testing.T) {
	srv := New(Config{Concurrency: 4, AllowRelaxed: true})
	if err := srv.AddQueue(QueueSpec{Name: "mq", Algorithm: pq.MultiQueue, Priorities: 32, Shards: 4}); err != nil {
		t.Fatal(err)
	}
	q := srv.queues["mq"]
	if q.rank == nil {
		t.Fatal("relaxed sharded queue has no cross-shard rank estimator")
	}

	// Exact and single-shard relaxed queues carry no estimator.
	if err := srv.AddQueue(QueueSpec{Name: "exact", Algorithm: pq.SimpleTree, Priorities: 32, Shards: 4}); err != nil {
		t.Fatal(err)
	}
	if srv.queues["exact"].rank != nil {
		t.Fatal("exact queue grew a rank estimator")
	}
	if err := srv.AddQueue(QueueSpec{Name: "mq1", Algorithm: pq.MultiQueue, Priorities: 32}); err != nil {
		t.Fatal(err)
	}
	if srv.queues["mq1"].rank != nil {
		t.Fatal("single-shard relaxed queue grew a rank estimator")
	}

	base, ok := q.relaxStats()
	if !ok || !base.Tracked {
		t.Fatalf("relaxStats baseline: %+v ok=%v", base, ok)
	}

	// 5 items live in shard 0 (the best band) and 2 in shard 1. Three
	// pops served from shard 2 each overtake 5+2=7 definitely-better
	// items; one pop from shard 1 overtakes 5.
	q.shardIn[0].Add(5)
	q.shardIn[1].Add(2)
	q.rankRecord(2, 3)
	q.rankRecord(1, 1)

	rs, ok := q.relaxStats()
	if !ok {
		t.Fatal("relaxStats lost tracking")
	}
	wantSum := base.RankSum + 3*7 + 1*5
	if rs.RankSum != wantSum {
		t.Fatalf("merged RankSum = %d, want %d (cross-shard charges folded in)", rs.RankSum, wantSum)
	}
	if rs.RankMax < 7 {
		t.Fatalf("merged RankMax = %d, want >= 7", rs.RankMax)
	}

	// Popping shard 0 dry removes the better-band mass: later pops from
	// shard 2 are charged only shard 1's occupancy.
	q.shardOut[0].Add(5)
	q.rankRecord(2, 1)
	rs2, _ := q.relaxStats()
	if got := rs2.RankSum - rs.RankSum; got != 2 {
		t.Fatalf("post-drain charge = %d, want 2 (only shard 1 remains better)", got)
	}

	// The estimator reaches the wire: the stats of a real traffic run
	// keeps RankSum >= the within-shard sum (never understates).
	for i := 0; i < 64; i++ {
		if n, _, err := q.insertN([]wire.Item{{Pri: uint32(i % 32), Value: []byte{byte(i)}}}); n != 1 || err != nil {
			t.Fatalf("insert: %v %v", n, err)
		}
	}
	for i := 0; i < 64; i++ {
		if envs, _, err := q.popN(1, 1<<20, nil); len(envs) != 1 || err != nil {
			t.Fatalf("pop %d: %d items err=%v", i, len(envs), err)
		}
	}
	within := int64(0)
	for _, sub := range q.shards {
		if srs, ok := pq.RelaxStatsOf(sub); ok {
			within += srs.RankSum
		}
	}
	final, _ := q.relaxStats()
	if final.RankSum < within {
		t.Fatalf("merged RankSum %d below within-shard sum %d", final.RankSum, within)
	}
}

// TestClusterCapacityAddsUp: admission is per node, so a cluster of n
// capacity-bounded nodes admits n times what one node does before it
// sheds — the property the insert-burst goodput curve rested on.
func TestClusterCapacityAddsUp(t *testing.T) {
	const pris, perNode = 48, 20
	for n := 1; n <= 3; n++ {
		spec := QueueSpec{Name: "jobs", Algorithm: pq.FunnelTree, Priorities: pris, Shards: 2, Capacity: perNode}
		_, servers, _ := startCluster(t, n, spec)
		cc := dialCluster(t, mustMap(t, servers[0]), func(cfg *pqclient.ClusterConfig) { cfg.MaxRetries = -1 })
		admitted := 0
		for i := 0; i < 3*n*perNode; i++ {
			switch err := cc.Insert(context.Background(), "jobs", i%pris, []byte{byte(i)}); {
			case err == nil:
				admitted++
			case !isOverload(err):
				t.Fatalf("%d nodes: insert %d: %v", n, i, err)
			}
		}
		if admitted != n*perNode {
			t.Fatalf("%d nodes of capacity %d admitted %d items, want %d", n, perNode, admitted, n*perNode)
		}
	}
}

// TestSetClusterMapValidation pins the map/queue compatibility rules:
// the self address must be in the map, every queue's priority space
// must match the map's, and AddQueue enforces the same check after the
// map is installed.
func TestSetClusterMapValidation(t *testing.T) {
	srv, addr := startServerCfg(t, Config{Concurrency: 4},
		QueueSpec{Name: "jobs", Algorithm: pq.SimpleTree, Priorities: 16})

	m := evenClusterMap(1, 16, []string{addr})
	if err := srv.SetClusterMap(m, "10.0.0.9:1"); err == nil {
		t.Fatal("SetClusterMap accepted a self address not in the map")
	}
	bad := evenClusterMap(1, 32, []string{addr})
	if err := srv.SetClusterMap(bad, addr); err == nil {
		t.Fatal("SetClusterMap accepted a map whose priority space mismatches the queue")
	}
	if err := srv.SetClusterMap(m, addr); err != nil {
		t.Fatal(err)
	}
	if err := srv.AddQueue(QueueSpec{Name: "other", Algorithm: pq.SimpleTree, Priorities: 8}); err == nil {
		t.Fatal("AddQueue accepted a queue mismatching the installed cluster map")
	}
	if err := srv.AddQueue(QueueSpec{Name: "other", Algorithm: pq.SimpleTree, Priorities: 16}); err != nil {
		t.Fatal(err)
	}
}

// TestClusterDeleteMinBatchCutStaysOnNode: a node's DELETE_MIN_BATCH
// answer is cut short by the frame's byte budget while the node still
// holds items, so a short non-empty answer does not mean the node ran
// dry. The sweep must ask the same node again before moving up a band:
// node 0 holds five 300 KiB items (three fit one frame), node 1 one
// small item of lower urgency, and one DeleteMinBatch must return all
// six in priority order.
func TestClusterDeleteMinBatchCutStaysOnNode(t *testing.T) {
	spec := QueueSpec{Name: "jobs", Algorithm: pq.SimpleTree, Priorities: 8}
	_, servers, _ := startCluster(t, 2, spec)
	cc := dialCluster(t, mustMap(t, servers[0]))
	ctx := context.Background()
	big := make([]byte, 300<<10)
	for _, pri := range []int{0, 0, 1, 2, 3} {
		if err := cc.Insert(ctx, "jobs", pri, big); err != nil {
			t.Fatalf("insert pri %d: %v", pri, err)
		}
	}
	if err := cc.Insert(ctx, "jobs", 6, []byte("small")); err != nil {
		t.Fatal(err)
	}
	items, err := cc.DeleteMinBatch(ctx, "jobs", 64)
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for _, it := range items {
		got = append(got, it.Pri)
	}
	want := []int{0, 0, 1, 2, 3, 6}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("DeleteMinBatch(64) returned priorities %v, want %v", got, want)
	}
}
