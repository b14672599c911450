// Cluster-aware client: routes operations across a multi-node pqd
// deployment using the versioned cluster map (see wire.ClusterMap).
//
// Routing contract:
//
//   - INSERT / INSERT_BATCH go to the node owning the item's priority.
//     A WRONG_NODE NACK (stale map) triggers a map refresh from the
//     NACKing node — it demonstrably has a map that disagrees — and a
//     bounded re-route; batches are split per owner before sending.
//   - DELETE_MIN / DELETE_MIN_BATCH sweep the nodes in ascending order
//     of their lowest owned priority. The map partitions by priority
//     range, so the nodes are the bins of the paper's SimpleLinear and
//     the minimum lives on the lowest-range non-empty node: pop it,
//     move up one node on EMPTY, report empty only when every node said
//     so. A node that fails is skipped; if nothing was delivered, its
//     error is reported instead of "empty", because emptiness cannot be
//     certified with a band unreachable. A delete costs 1 + (number of
//     nodes below the lowest non-empty band) sequential frames.
//
// Nothing is ever held client-side: a delete never inserts, an item is
// either on its owner node or delivered, and exactly-once is the
// node's own pop guarantee.
package pqclient

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pq/internal/wire"
)

// ClusterConfig tunes a ClusterClient. Either Map (a static, already
// validated map) or Seeds plus BootstrapQueue (fetch the map via STATS
// from the first reachable seed) must be set.
type ClusterConfig struct {
	// Map is a static cluster map. When nil, the map is fetched from
	// Seeds at dial time.
	Map *wire.ClusterMap
	// Seeds are node addresses to bootstrap the map from (any node of
	// the cluster serves the full map in STATS). Unused when Map is
	// set.
	Seeds []string
	// BootstrapQueue is the queue name used for the STATS bootstrap
	// fetch (STATS is per-queue). Required when Map is nil.
	BootstrapQueue string

	// Per-node connection tuning, applied to every node's Client;
	// zero values take the Config defaults.
	DialTimeout    time.Duration
	RequestTimeout time.Duration
	MaxRetries     int
	RetryBase      time.Duration

	// Conns is ignored: each node's Client holds one connection.
	//
	// Deprecated: kept only because bench/ still sets it; goes when
	// bench/ next opens (ROADMAP item 1(b)).
	Conns int

	// Rand is ignored: no operation samples nodes.
	//
	// Deprecated: kept only because bench/ still sets it; goes when
	// bench/ next opens (ROADMAP item 1(b)).
	Rand int64
}

func (c *ClusterConfig) nodeConfig(addr string) Config {
	return Config{
		Addr:           addr,
		DialTimeout:    c.DialTimeout,
		RequestTimeout: c.RequestTimeout,
		MaxRetries:     c.MaxRetries,
		RetryBase:      c.RetryBase,
	}
}

// ClusterClient routes requests across the nodes of one pqd cluster.
// All methods are safe for concurrent use.
type ClusterClient struct {
	cfg ClusterConfig
	r   atomic.Pointer[routing]

	mu     sync.Mutex
	nodes  map[string]*Client
	closed bool
}

// routing is one adopted cluster map plus the order deletes sweep its
// nodes in, published together so the delete path sorts nothing.
type routing struct {
	m     *wire.ClusterMap
	sweep []string // node addresses by ascending lowest owned priority
}

func newRouting(m *wire.ClusterMap) *routing {
	lo := make(map[string]int, len(m.Nodes))
	sweep := make([]string, len(m.Nodes))
	for i, n := range m.Nodes {
		sweep[i] = n.Addr
		lo[n.Addr] = m.Priorities
		for _, r := range n.Ranges {
			lo[n.Addr] = min(lo[n.Addr], r.Lo)
		}
	}
	sort.SliceStable(sweep, func(a, b int) bool { return lo[sweep[a]] < lo[sweep[b]] })
	return &routing{m: m, sweep: sweep}
}

// DialCluster builds a cluster client. With cfg.Map set no connection
// is made until the first operation; otherwise the map is fetched from
// the first reachable seed.
func DialCluster(cfg ClusterConfig) (*ClusterClient, error) {
	cc := &ClusterClient{cfg: cfg, nodes: make(map[string]*Client)}
	if cfg.Map != nil {
		// Clone before validating: Validate builds the lookup index in
		// place, and the caller may hand the same map to many clients.
		m := cfg.Map.Clone()
		if err := m.Validate(); err != nil {
			return nil, err
		}
		cc.r.Store(newRouting(m))
		return cc, nil
	}
	if len(cfg.Seeds) == 0 {
		return nil, errors.New("pqclient: ClusterConfig needs Map or Seeds")
	}
	if cfg.BootstrapQueue == "" {
		return nil, errors.New("pqclient: ClusterConfig.BootstrapQueue is required to fetch the map from Seeds")
	}
	ctx := context.Background()
	var firstErr error
	for _, addr := range cfg.Seeds {
		if err := cc.refreshFrom(ctx, cfg.BootstrapQueue, addr); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		return cc, nil
	}
	return nil, fmt.Errorf("pqclient: no seed served a cluster map: %w", firstErr)
}

// Map returns the active cluster map.
func (cc *ClusterClient) Map() *wire.ClusterMap { return cc.r.Load().m }

// MapVersion returns the active map's version.
func (cc *ClusterClient) MapVersion() uint64 { return cc.Map().Version }

// Close severs every node's connection.
func (cc *ClusterClient) Close() error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	cc.closed = true
	for _, c := range cc.nodes {
		c.Close()
	}
	return nil
}

// Stashed returns 0: the client holds no items.
//
// Deprecated: kept only because bench/ still calls it; goes when bench/
// next opens (ROADMAP item 1(b)).
func (cc *ClusterClient) Stashed() int { return 0 }

// node returns (dialing if needed) the client for addr.
func (cc *ClusterClient) node(addr string) (*Client, error) {
	cc.mu.Lock()
	if cc.closed {
		cc.mu.Unlock()
		return nil, ErrClosed
	}
	if c := cc.nodes[addr]; c != nil {
		cc.mu.Unlock()
		return c, nil
	}
	cc.mu.Unlock()
	// Dial outside the lock; losers of a dial race are closed.
	c, err := Dial(cc.cfg.nodeConfig(addr))
	if err != nil {
		return nil, err
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.closed {
		c.Close()
		return nil, ErrClosed
	}
	if prev := cc.nodes[addr]; prev != nil {
		c.Close()
		return prev, nil
	}
	cc.nodes[addr] = c
	return c, nil
}

// refreshFrom fetches addr's STATS for queue and adopts its cluster
// map when newer than (or replacing a nil) current map.
func (cc *ClusterClient) refreshFrom(ctx context.Context, queue, addr string) error {
	c, err := cc.node(addr)
	if err != nil {
		return err
	}
	st, err := c.Stats(ctx, queue)
	if err != nil {
		return err
	}
	if st.Cluster == nil {
		return fmt.Errorf("pqclient: node %s serves no cluster map (not in cluster mode?)", addr)
	}
	m, err := st.Cluster.Map()
	if err != nil {
		return fmt.Errorf("pqclient: node %s serves a bad cluster map: %w", addr, err)
	}
	next := newRouting(m)
	for {
		cur := cc.r.Load()
		if cur != nil && cur.m.Version >= m.Version {
			return nil // nothing newer
		}
		if cc.r.CompareAndSwap(cur, next) {
			return nil
		}
	}
}

// RefreshMap polls every node (best-effort) and adopts the newest map
// it sees, returning the active version afterwards.
func (cc *ClusterClient) RefreshMap(ctx context.Context, queue string) (uint64, error) {
	m := cc.Map()
	var firstErr error
	for _, n := range m.Nodes {
		if err := cc.refreshFrom(ctx, queue, n.Addr); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if v := cc.MapVersion(); v > m.Version {
		return v, nil
	}
	return cc.MapVersion(), firstErr
}

// ownerAddr resolves pri's owner under m.
func ownerAddr(m *wire.ClusterMap, pri int) (string, error) {
	n, ok := m.OwnerOf(pri)
	if !ok {
		return "", fmt.Errorf("pqclient: priority %d outside the cluster map's [0,%d)", pri, m.Priorities)
	}
	return m.Nodes[n].Addr, nil
}

// splitByOwner groups items by the address of the node owning each
// item's priority under m.
func splitByOwner(m *wire.ClusterMap, items []Item) (map[string][]Item, error) {
	byNode := make(map[string][]Item)
	for _, it := range items {
		addr, err := ownerAddr(m, it.Pri)
		if err != nil {
			return nil, err
		}
		byNode[addr] = append(byNode[addr], it)
	}
	return byNode, nil
}

// Insert routes one insert to the priority's owner, refreshing the map
// and re-routing (bounded) when the addressed node NACKs with
// WRONG_NODE.
func (cc *ClusterClient) Insert(ctx context.Context, queue string, pri int, value []byte) error {
	if pri < 0 {
		return fmt.Errorf("pqclient: negative priority %d", pri)
	}
	hint := ""
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		m := cc.Map()
		addr := hint
		hint = ""
		if addr == "" {
			var err error
			if addr, err = ownerAddr(m, pri); err != nil {
				return err
			}
		}
		c, err := cc.node(addr)
		if err != nil {
			return err
		}
		err = c.Insert(ctx, queue, pri, value)
		var wn *WrongNodeError
		if !errors.As(err, &wn) {
			return err
		}
		lastErr = err
		// The NACKing node's map disagrees with ours; refetch from it
		// (best-effort — it is reachable, it just answered) and route
		// again. If the refreshed map still points at the same node,
		// fall back to the NACK's owner hint once.
		cc.refreshFrom(ctx, queue, addr)
		if again, err2 := ownerAddr(cc.Map(), pri); err2 == nil && again == addr && wn.Owner != "" {
			hint = wn.Owner
		}
	}
	return lastErr
}

// InsertBatch splits the batch by owning node and sends the pieces
// concurrently. accepted is the total across nodes (not a prefix — the
// batch is delivered in per-node pieces); a *RetryError accompanies a
// short count when some node shed, and a WRONG_NODE NACK refreshes the
// map and retries that node's piece once before surfacing.
func (cc *ClusterClient) InsertBatch(ctx context.Context, queue string, items []Item) (accepted int, err error) {
	if len(items) == 0 {
		return 0, nil
	}
	byNode, err := splitByOwner(cc.Map(), items)
	if err != nil {
		return 0, err
	}
	var (
		mu      sync.Mutex
		total   int
		retry   *RetryError
		firstEr error
		wg      sync.WaitGroup
	)
	for addr, part := range byNode {
		wg.Add(1)
		go func(addr string, part []Item) {
			defer wg.Done()
			n, err := cc.insertBatchNode(ctx, queue, addr, part)
			mu.Lock()
			defer mu.Unlock()
			total += n
			var re *RetryError
			if errors.As(err, &re) {
				if retry == nil || re.After > retry.After {
					retry = re
				}
			} else if err != nil && firstEr == nil {
				firstEr = err
			}
		}(addr, part)
	}
	wg.Wait()
	if firstEr != nil {
		return total, firstEr
	}
	if retry != nil {
		return total, retry
	}
	return total, nil
}

// insertBatchNode sends one node's piece, re-routing once on a
// WRONG_NODE NACK after refreshing the map.
func (cc *ClusterClient) insertBatchNode(ctx context.Context, queue, addr string, part []Item) (int, error) {
	c, err := cc.node(addr)
	if err != nil {
		return 0, err
	}
	n, err := c.InsertBatch(ctx, queue, part)
	var wn *WrongNodeError
	if !errors.As(err, &wn) {
		return n, err
	}
	// Stale map: nothing was admitted (misrouted batches are NACKed
	// whole). Re-split the piece under the refreshed map and resend.
	cc.refreshFrom(ctx, queue, addr)
	byNode, err := splitByOwner(cc.Map(), part)
	if err != nil {
		return 0, err
	}
	total := 0
	for a, p := range byNode {
		c, err := cc.node(a)
		if err != nil {
			return total, err
		}
		n, err := c.InsertBatch(ctx, queue, p)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// sweep is the one delete loop: it visits the nodes in ascending order
// of their lowest owned priority, calling pop on each until pop reports
// it has all it wants. A node that fails (to dial or to answer) is
// skipped; the first such error is returned for the caller to report
// when it ended up with nothing.
func (cc *ClusterClient) sweep(pop func(*Client) (done bool, err error)) error {
	var firstErr error
	for _, addr := range cc.r.Load().sweep {
		c, err := cc.node(addr)
		if err == nil {
			var done bool
			if done, err = pop(c); done {
				return nil
			}
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// DeleteMin removes and returns the cluster's most urgent item: the
// head of the lowest-range non-empty node. ok=false means every node
// answered EMPTY; if some node failed and no other had an item, the
// result is that node's error, never ok=false. With one caller and no
// concurrent inserts the order is strict (on a map where each node
// owns one contiguous range); concurrent callers get what a sharded
// servedQueue gives, for the same reason — an insert may land on a band
// the sweep has already passed.
func (cc *ClusterClient) DeleteMin(ctx context.Context, queue string) (it Item, ok bool, err error) {
	err = cc.sweep(func(c *Client) (bool, error) {
		var perr error
		it, ok, perr = c.DeleteMin(ctx, queue)
		return ok, perr
	})
	return it, ok, err
}

// DeleteMinBatch removes up to max items by the same sweep, taking as
// much as each node has before moving up: a node is asked again after a
// short non-empty answer, which may be the frame's byte budget cutting
// the batch, and left only once it answers empty. The merged result is
// sorted by priority. A short (or empty) result means every reachable
// node answered empty; an error is returned only when nothing was
// delivered.
func (cc *ClusterClient) DeleteMinBatch(ctx context.Context, queue string, max int) ([]Item, error) {
	if max < 1 {
		return nil, fmt.Errorf("pqclient: DeleteMinBatch max must be >= 1, got %d", max)
	}
	var out []Item
	err := cc.sweep(func(c *Client) (bool, error) {
		for {
			items, err := c.DeleteMinBatch(ctx, queue, max-len(out))
			out = append(out, items...)
			if len(out) >= max || len(items) == 0 || err != nil {
				return len(out) >= max, err
			}
		}
	})
	if len(out) == 0 {
		return nil, err
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Pri < out[b].Pri })
	return out, nil
}

// NodeStats fetches every node's view of one queue, keyed by node
// address.
func (cc *ClusterClient) NodeStats(ctx context.Context, queue string) (map[string]QueueStats, error) {
	m := cc.Map()
	out := make(map[string]QueueStats, len(m.Nodes))
	for _, n := range m.Nodes {
		c, err := cc.node(n.Addr)
		if err != nil {
			return out, err
		}
		st, err := c.Stats(ctx, queue)
		if err != nil {
			return out, err
		}
		out[n.Addr] = st
	}
	return out, nil
}

// Stats aggregates the per-node counters of one queue: counters sum,
// Size sums, and the identity fields come from the map plus the first
// node. The cluster block carries the active map.
func (cc *ClusterClient) Stats(ctx context.Context, queue string) (QueueStats, error) {
	m := cc.Map()
	per, err := cc.NodeStats(ctx, queue)
	if err != nil {
		return QueueStats{}, err
	}
	var agg QueueStats
	first := true
	for _, n := range m.Nodes {
		st := per[n.Addr]
		if first {
			agg = st
			first = false
			continue
		}
		agg.Inserts += st.Inserts
		agg.Deletes += st.Deletes
		agg.EmptyDeletes += st.EmptyDeletes
		agg.RetryAfter += st.RetryAfter
		agg.Size += st.Size
		agg.Draining = agg.Draining || st.Draining
		agg.Shards += st.Shards
	}
	agg.Latency = nil // per-node distributions don't merge; use NodeStats
	agg.Durability = nil
	return agg, nil
}

// Drain tells every node to stop admitting inserts to the queue;
// remaining sums what was still queued cluster-wide.
func (cc *ClusterClient) Drain(ctx context.Context, queue string) (remaining uint64, err error) {
	m := cc.Map()
	var total uint64
	for _, n := range m.Nodes {
		c, err := cc.node(n.Addr)
		if err != nil {
			return total, err
		}
		rem, err := c.Drain(ctx, queue)
		if err != nil {
			return total, err
		}
		total += rem
	}
	return total, nil
}
