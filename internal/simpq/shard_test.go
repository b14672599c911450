package simpq

import (
	"testing"

	"pq/internal/sim"
)

// banded is pqd's sharding on the simulator: S sub-queues built by Build
// over the priority bands [s·N/S, (s+1)·N/S), inserts routed to their
// band, and delete-min scanning the bands in order, as the served queue
// does (internal/server/queue.go). Routing is host-side and costs no
// simulated cycles, as the served queue's shardFor costs no shared
// access.
type banded struct {
	subs  []Queue
	bases []int // len S+1; sub s serves [bases[s], bases[s+1])
}

func newBanded(alg Algorithm, m *sim.Machine, npri, shards, maxItems int) *banded {
	b := &banded{bases: make([]int, shards+1)}
	for s := range b.bases {
		b.bases[s] = s * npri / shards
	}
	for s := range shards {
		b.subs = append(b.subs, Build(alg, m, b.bases[s+1]-b.bases[s], maxItems))
	}
	return b
}

func (b *banded) Insert(p *sim.Proc, pri int, val uint64) {
	s := len(b.subs) - 1
	for b.bases[s] > pri {
		s--
	}
	b.subs[s].Insert(p, pri-b.bases[s], val)
}

func (b *banded) DeleteMin(p *sim.Proc) (uint64, bool) {
	for _, sub := range b.subs {
		if v, ok := sub.DeleteMin(p); ok {
			return v, true
		}
	}
	return 0, false
}

func (b *banded) NumPriorities() int { return b.bases[len(b.bases)-1] }

// runBanded drives the paper's workload (seed 1) on procs processors
// against alg split into shards bands of npri priorities, after a
// prefill, and returns the mean cycles per access.
func runBanded(t *testing.T, alg Algorithm, procs, npri, shards, prefill int) float64 {
	t.Helper()
	cfg := DefaultWorkload()
	cfg.Prefill = prefill
	m, err := sim.New(sim.DefaultConfig(procs))
	if err != nil {
		t.Fatal(err)
	}
	r, err := DriveWorkload(m, newBanded(alg, m, npri, shards, capacity(procs, cfg)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s P=%d N=%d S=%d prefill=%d: %.0f cycles/op (final cycle %d)", alg, procs, npri, shards, prefill, r.MeanAll, r.Stats.FinalTime)
	return r.MeanAll
}

// TestShardVerdict pins the simulator's verdict on served shards
// (EXPERIMENTS.md, "Shards on the simulator"): splitting a FunnelTree
// pays under a standing backlog and costs from an empty start. On 64
// processors, 4 shards beat 1 over 64 priorities prefilled with 10,000
// items, 1 shard beats 4 over 16 priorities from an empty start, and
// SimpleLinear, whose delete-min already scans its bins in order, costs
// exactly the same split or not.
func TestShardVerdict(t *testing.T) {
	if s1, s4 := runBanded(t, AlgFunnelTree, 64, 64, 1, 10000), runBanded(t, AlgFunnelTree, 64, 64, 4, 10000); s4 >= s1 {
		t.Errorf("FunnelTree N=64 prefill 10000: 4 shards %.0f cycles/op, 1 shard %.0f; want 4 shards faster", s4, s1)
	}
	if s1, s4 := runBanded(t, AlgFunnelTree, 64, 16, 1, 0), runBanded(t, AlgFunnelTree, 64, 16, 4, 0); s1 >= s4 {
		t.Errorf("FunnelTree N=16 empty: 1 shard %.0f cycles/op, 4 shards %.0f; want 1 shard faster", s1, s4)
	}
	if s1, s4 := runBanded(t, AlgSimpleLinear, 64, 64, 1, 10000), runBanded(t, AlgSimpleLinear, 64, 64, 4, 10000); s1 != s4 {
		t.Errorf("SimpleLinear N=64 prefill 10000: 1 shard %v cycles/op, 4 shards %v; want equal", s1, s4)
	}
}
