package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"time"

	"pq"
	"pq/internal/server"
	"pq/internal/wal"
	"pq/internal/wire"
	"pq/pqclient"
)

// env is one set-up system under test: something to make callers on, to
// prefill, to drain for the audit, and to tear down.
type env struct {
	conns   int // TCP connections the load uses (0 for the native library)
	strict  bool
	caller  func() caller
	prefill func(ids []uint64) error
	// drain empties the system and returns what came out.
	drain func() (multiset, error)
	// settled checks, once drained, that every node's own counters balance.
	settled func() error
	// layerStats reports per-layer counters the system kept during the run.
	layerStats func() map[string]float64
	close      func()
}

var errCorrupt = errors.New("bench: delivered value fails its integrity check")

// nativeCaller calls the library queue directly.
type nativeCaller struct{ q pq.Queue[uint64] }

func (c nativeCaller) insert(pri int, id uint64) error {
	c.q.Insert(pri, id)
	return nil
}

func (c nativeCaller) deleteMin() (uint64, int, bool, error) {
	id, ok := c.q.DeleteMin()
	return id, idPri(id), ok, nil
}

func newNativeEnv() (*env, error) {
	q, err := pq.New[uint64](pq.FunnelTree, priorities)
	if err != nil {
		return nil, err
	}
	return &env{
		strict: true,
		caller: func() caller { return nativeCaller{q} },
		prefill: func(ids []uint64) error {
			for _, id := range ids {
				q.Insert(idPri(id), id)
			}
			return nil
		},
		drain: func() (multiset, error) {
			var out multiset
			for _, it := range pq.Drain(q) {
				out.add(it.Val)
			}
			return out, nil
		},
		close: func() {},
	}, nil
}

// queueClient is what pqclient.Client and pqclient.ClusterClient share.
type queueClient interface {
	Insert(ctx context.Context, queue string, pri int, value []byte) error
	InsertBatch(ctx context.Context, queue string, items []pqclient.Item) (int, error)
	DeleteMin(ctx context.Context, queue string) (pqclient.Item, bool, error)
	DeleteMinBatch(ctx context.Context, queue string, max int) ([]pqclient.Item, error)
	Close() error
}

// clientCaller drives the service through a client library. Each caller
// owns its value buffer: an Insert holds it only until it returns.
type clientCaller struct {
	c   queueClient
	buf [valueLen]byte
}

func (c *clientCaller) insert(pri int, id uint64) error {
	return c.c.Insert(context.Background(), queueName, pri, putValue(c.buf[:], id))
}

func (c *clientCaller) deleteMin() (uint64, int, bool, error) {
	it, ok, err := c.c.DeleteMin(context.Background(), queueName)
	if err != nil || !ok {
		return 0, 0, false, err
	}
	id, valid := parseValue(it.Value)
	if !valid {
		return 0, 0, false, errCorrupt
	}
	return id, it.Pri, true, nil
}

func clientPrefill(c queueClient, ids []uint64) error {
	const chunk = 500
	for len(ids) > 0 {
		n := min(chunk, len(ids))
		items := make([]pqclient.Item, n)
		for i, id := range ids[:n] {
			items[i] = pqclient.Item{Pri: idPri(id), Value: putValue(make([]byte, valueLen), id)}
		}
		got, err := c.InsertBatch(context.Background(), queueName, items)
		if err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
		if got != n {
			return fmt.Errorf("prefill: %d of %d items admitted", got, n)
		}
		ids = ids[n:]
	}
	return nil
}

func clientDrain(c queueClient) (multiset, error) {
	var out multiset
	for {
		items, err := c.DeleteMinBatch(context.Background(), queueName, 1024)
		if err != nil {
			return out, fmt.Errorf("drain: %w", err)
		}
		if len(items) == 0 {
			return out, nil
		}
		for _, it := range items {
			id, ok := parseValue(it.Value)
			if !ok || idPri(id) != it.Pri {
				return out, errCorrupt
			}
			out.add(id)
		}
	}
}

// node is one in-process pqd serving on loopback.
type node struct {
	srv    *server.Server
	addr   string
	served chan error
}

func listenLoopback() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// startNode serves the benchmark's one queue on ln. With a cluster map the
// node enforces ownership of its ranges.
func startNode(cfg server.Config, ln net.Listener, cm *wire.ClusterMap) (*node, error) {
	srv := server.New(cfg)
	addr := ln.Addr().String()
	if cm != nil {
		if err := srv.SetClusterMap(cm, addr); err != nil {
			ln.Close()
			return nil, err
		}
	}
	if err := srv.AddQueue(server.QueueSpec{
		Name: queueName, Algorithm: pq.FunnelTree, Priorities: priorities, Shards: shards, Capacity: capacity,
	}); err != nil {
		ln.Close()
		return nil, err
	}
	n := &node{srv: srv, addr: addr, served: make(chan error, 1)}
	go func() { n.served <- srv.Serve(ln) }()
	// Close before Serve has registered the listener would leave it open.
	for srv.Addr() == nil {
		runtime.Gosched()
	}
	return n, nil
}

func (n *node) stop() {
	n.srv.Close()
	<-n.served
}

func (n *node) stats() wire.QueueStats {
	st, _ := n.srv.QueueStats(queueName)
	return st
}

// settledNodes checks each node's own books after a drain.
func settledNodes(nodes ...*node) error {
	for _, n := range nodes {
		if st := n.stats(); st.Inserts != st.Deletes {
			return fmt.Errorf("node %s: %d items admitted but %d delivered", n.addr, st.Inserts, st.Deletes)
		}
	}
	return nil
}

// newServeEnv is a single node behind pqclient.Client on conns
// connections. A durable node keeps a WAL in a scratch directory under
// p.tmp, with the interval fsync policy and default snapshots.
func newServeEnv(p runParams, durable bool, conns int) (e *env, err error) {
	cfg := server.Config{}
	removeDir := func() {}
	if durable {
		dir, remove, err := tempDir(p.tmp, "wal-*")
		if err != nil {
			return nil, err
		}
		cfg.DataDir, cfg.Fsync, cfg.FsyncInterval = dir, wal.SyncInterval, 10*time.Millisecond
		removeDir = remove
	}
	defer func() {
		if err != nil {
			removeDir()
		}
	}()
	ln, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	n, err := startNode(cfg, ln, nil)
	if err != nil {
		return nil, err
	}
	c, err := pqclient.Dial(pqclient.Config{Addr: n.addr, Conns: conns})
	if err != nil {
		n.stop()
		return nil, err
	}
	e = clientEnv(c, conns, n)
	e.strict = true
	e.layerStats = func() map[string]float64 { return durabilityStats(n.stats()) }
	closeEnv := e.close
	e.close = func() {
		closeEnv()
		removeDir()
	}
	return e, nil
}

func clientEnv(c queueClient, conns int, nodes ...*node) *env {
	return &env{
		conns:   conns,
		caller:  func() caller { return &clientCaller{c: c} },
		prefill: func(ids []uint64) error { return clientPrefill(c, ids) },
		drain:   func() (multiset, error) { return clientDrain(c) },
		settled: func() error { return settledNodes(nodes...) },
		close: func() {
			c.Close()
			for _, n := range nodes {
				n.stop()
			}
		},
	}
}

// durabilityStats turns a durable queue's WAL counters into wal.* metrics.
func durabilityStats(st wire.QueueStats) map[string]float64 {
	d := st.Durability
	if d == nil {
		return nil
	}
	out := map[string]float64{"wal.snapshots": float64(d.Snapshots)}
	if d.Fsyncs > 0 {
		out["wal.appends_per_fsync"] = float64(d.Appends) / float64(d.Fsyncs)
	}
	if d.FsyncLatency != nil {
		out["wal.fsync_p99_us"] = d.FsyncLatency.P99 / 1e3
	}
	return out
}

// clusterEnv is two nodes sharing a 2-range map behind DialCluster, one
// connection per node.
type clusterEnv struct {
	nodes []*node
	cc    *pqclient.ClusterClient
}

func startCluster(seed uint64) (*clusterEnv, error) {
	const nNodes = 2
	lns := make([]net.Listener, nNodes)
	cm := &wire.ClusterMap{Version: 1, Priorities: priorities}
	for i := range lns {
		ln, err := listenLoopback()
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		cm.Nodes = append(cm.Nodes, wire.ClusterNode{
			Addr:   ln.Addr().String(),
			Ranges: []wire.ClusterRange{{Lo: i * priorities / nNodes, Hi: (i + 1) * priorities / nNodes}},
		})
	}
	ce := &clusterEnv{}
	for _, ln := range lns {
		n, err := startNode(server.Config{}, ln, cm)
		if err != nil {
			ce.close()
			return nil, err
		}
		ce.nodes = append(ce.nodes, n)
	}
	cc, err := pqclient.DialCluster(pqclient.ClusterConfig{Map: cm, Conns: 1, Rand: int64(seed | 1)})
	if err != nil {
		ce.close()
		return nil, err
	}
	ce.cc = cc
	return ce, nil
}

func (ce *clusterEnv) close() {
	if ce.cc != nil {
		ce.cc.Close()
	}
	for _, n := range ce.nodes {
		n.stop()
	}
}

func newClusterEnv(seed uint64) (*env, error) {
	ce, err := startCluster(seed)
	if err != nil {
		return nil, err
	}
	e := clientEnv(ce.cc, len(ce.nodes), ce.nodes...)
	e.close = ce.close
	e.settled = func() error {
		if n := ce.cc.Stashed(); n != 0 {
			return fmt.Errorf("cluster client still stashes %d items after the drain", n)
		}
		return settledNodes(ce.nodes...)
	}
	return e, nil
}

// tempDir makes a scratch directory under root, which is inside the
// checkout, and returns it with its remover.
func tempDir(root, pattern string) (string, func(), error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(root, pattern)
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}
