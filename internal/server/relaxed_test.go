package server

import (
	"net/http/httptest"
	"strings"
	"testing"

	"pq"
	"pq/internal/wire"
)

// TestRelaxedQueueGate checks that relaxed algorithms are opt-in:
// AddQueue refuses them by default with an error naming the escape
// hatch, and accepts them under Config.AllowRelaxed.
func TestRelaxedQueueGate(t *testing.T) {
	srv := New(Config{Concurrency: 4})
	err := srv.AddQueue(QueueSpec{Name: "jobs", Algorithm: pq.MultiQueue, Priorities: 16})
	if err == nil {
		t.Fatal("relaxed queue accepted without AllowRelaxed")
	}
	if !strings.Contains(err.Error(), "AllowRelaxed") || !strings.Contains(err.Error(), "-relaxed") {
		t.Fatalf("rejection does not name the escape hatch: %v", err)
	}
	// Exact algorithms are unaffected by the gate.
	if err := srv.AddQueue(QueueSpec{Name: "exact", Algorithm: pq.FunnelTree, Priorities: 16}); err != nil {
		t.Fatal(err)
	}

	relaxedSrv := New(Config{Concurrency: 4, AllowRelaxed: true})
	if err := relaxedSrv.AddQueue(QueueSpec{Name: "jobs", Algorithm: pq.MultiQueue, Priorities: 16}); err != nil {
		t.Fatalf("AllowRelaxed did not admit MultiQueue: %v", err)
	}
}

// TestRelaxedRankMetrics serves a MultiQueue, drives traffic through
// the queue paths, and checks the rank-error Prometheus families
// appear for the relaxed queue and never for exact queues.
func TestRelaxedRankMetrics(t *testing.T) {
	srv := New(Config{Concurrency: 4, AllowRelaxed: true})
	if err := srv.AddQueue(QueueSpec{Name: "relaxed", Algorithm: pq.MultiQueue, Priorities: 16}); err != nil {
		t.Fatal(err)
	}
	if err := srv.AddQueue(QueueSpec{Name: "exact", Algorithm: pq.SimpleLinear, Priorities: 16}); err != nil {
		t.Fatal(err)
	}
	q := srv.queues["relaxed"]
	for i := 0; i < 200; i++ {
		if n, _, err := q.insertN([]wire.Item{{Pri: uint32(i % 16), Value: []byte{byte(i)}}}); n != 1 || err != nil {
			t.Fatalf("insert %d: accepted %d err %v", i, n, err)
		}
		if i%2 == 1 {
			if envs, _, err := q.popN(1, 1<<20, nil); len(envs) != 1 || err != nil {
				t.Fatalf("pop %d: %d items err=%v", i, len(envs), err)
			}
		}
	}
	rs, ok := q.relaxStats()
	if !ok || !rs.Tracked || rs.Pops == 0 {
		t.Fatalf("relaxStats = %+v ok=%v, want tracked pops", rs, ok)
	}
	if _, ok := srv.queues["exact"].relaxStats(); ok {
		t.Fatal("exact queue reported relax stats")
	}

	ts := httptest.NewServer(srv.AdminHandler())
	defer ts.Close()
	_, body := adminGet(t, ts, "/metrics")
	for _, family := range []string{
		"pq_queue_relaxed",
		"pq_queue_rank_error_pops_total",
		"pq_queue_rank_error_mean",
		"pq_queue_rank_error_p50",
		"pq_queue_rank_error_p99",
		"pq_queue_rank_error_max",
	} {
		if !strings.Contains(body, family+`{queue="relaxed"}`) {
			t.Errorf("/metrics missing %s for the relaxed queue", family)
		}
	}
	if !strings.Contains(body, `pq_queue_relaxed{queue="exact"} 0`) {
		t.Error("/metrics missing pq_queue_relaxed 0 for the exact queue")
	}
	if strings.Contains(body, `pq_queue_rank_error_pops_total{queue="exact"}`) {
		t.Error("/metrics emits rank families for an exact queue")
	}
}
