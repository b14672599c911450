package server

import (
	"context"
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"pq"
	"pq/pqclient"
)

// TestLoopbackEndToEnd is the serving subsystem's acceptance test: pqd
// semantics (a Server on loopback) hosting a sharded FunnelTree under
// concurrent pipelined clients. It checks, per item, that every
// acknowledged insert is deleted exactly once and nothing else ever
// comes out; that admission control observably sheds (RETRY_AFTER
// count > 0) when the bound is exceeded; and that the queue drains
// cleanly. Run it under -race.
func TestLoopbackEndToEnd(t *testing.T) {
	const (
		clients  = 4
		workers  = 2 // goroutines per client
		opsEach  = 300
		pris     = 64
		capacity = 120
	)
	s, addr := startServer(t, QueueSpec{
		Name:       "jobs",
		Algorithm:  pq.FunnelTree,
		Priorities: pris,
		Shards:     4,
		Capacity:   capacity,
	})

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Every worker inserts values tagged worker<<32|seq and interleaves
	// delete-mins; acked inserts and deleted values are collected for
	// the exactly-once check.
	var (
		mu      sync.Mutex
		acked   = map[uint64]int{}
		deleted = map[uint64]int{}
		sheds   int
	)
	record := func(m map[uint64]int, id uint64) {
		mu.Lock()
		m[id]++
		mu.Unlock()
	}

	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		c := dialClient(t, addr, func(cfg *pqclient.Config) {
			cfg.MaxRetries = 3
			cfg.RetryBase = time.Millisecond
		})
		for w := 0; w < workers; w++ {
			worker := uint64(cl*workers + w)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < opsEach; i++ {
					id := worker<<32 | uint64(i)
					// Two inserts per delete keeps pressure on the
					// capacity bound so admission control must engage.
					if i%3 != 2 {
						v := make([]byte, 8)
						binary.BigEndian.PutUint64(v, id)
						err := c.Insert(ctx, "jobs", int(id*13)%pris, v)
						switch {
						case err == nil:
							record(acked, id)
						case isOverload(err):
							mu.Lock()
							sheds++
							mu.Unlock()
						default:
							t.Errorf("insert: %v", err)
							return
						}
					} else {
						it, ok, err := c.DeleteMin(ctx, "jobs")
						if err != nil {
							t.Errorf("delete-min: %v", err)
							return
						}
						if ok {
							record(deleted, binary.BigEndian.Uint64(it.Value))
						}
					}
				}
			}()
		}
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Drain: stop admission, then pop until empty.
	drainer := dialClient(t, addr)
	if _, err := drainer.Drain(ctx, "jobs"); err != nil {
		t.Fatal(err)
	}
	for {
		items, err := drainer.DeleteMinBatch(ctx, "jobs", 256)
		if err != nil {
			t.Fatal(err)
		}
		if len(items) == 0 {
			break
		}
		for _, it := range items {
			record(deleted, binary.BigEndian.Uint64(it.Value))
		}
	}

	// Exactly-once: every acked insert deleted once, nothing phantom.
	for id, n := range deleted {
		if n != 1 {
			t.Errorf("item %x deleted %d times", id, n)
		}
		if acked[id] != 1 {
			t.Errorf("item %x deleted but acked %d times", id, acked[id])
		}
	}
	for id := range acked {
		if deleted[id] != 1 {
			t.Errorf("acked item %x deleted %d times", id, deleted[id])
		}
	}

	// Admission control must have observably shed: the workload holds
	// ~2 inserts per delete against capacity 120 with client retry
	// capped, so some Inserts end in ErrOverload and the server counts
	// RETRY_AFTER frames.
	st, ok := s.QueueStats("jobs")
	if !ok {
		t.Fatal("queue stats missing")
	}
	if st.RetryAfter == 0 {
		t.Error("server never shed with RETRY_AFTER despite bounded capacity")
	}
	if sheds == 0 {
		t.Error("no client ever observed overload")
	}
	if st.Size != 0 {
		t.Errorf("queue not drained: size=%d", st.Size)
	}
	if int(st.Deletes) != len(deleted) || int(st.Inserts) != len(acked) {
		t.Errorf("server counters (ins=%d del=%d) disagree with client view (ins=%d del=%d)",
			st.Inserts, st.Deletes, len(acked), len(deleted))
	}
	t.Logf("acked=%d deleted=%d sheds(client)=%d retry_after(server)=%d",
		len(acked), len(deleted), sheds, st.RetryAfter)
}

// TestPipelinedCoalescing pushes many concurrent inserts through one
// connection so the client's batch coalescing engages, then verifies
// nothing was lost or duplicated.
func TestPipelinedCoalescing(t *testing.T) {
	_, addr := startServer(t, QueueSpec{Name: "jobs", Algorithm: pq.SimpleTree, Priorities: 32})
	c := dialClient(t, addr)
	ctx := context.Background()

	const n = 400
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := make([]byte, 4)
			binary.BigEndian.PutUint32(v, uint32(i))
			if err := c.Insert(ctx, "jobs", i%32, v); err != nil {
				t.Errorf("insert %d: %v", i, err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	seen := make([]bool, n)
	got := 0
	for {
		items, err := c.DeleteMinBatch(ctx, "jobs", 64)
		if err != nil {
			t.Fatal(err)
		}
		if len(items) == 0 {
			break
		}
		for _, it := range items {
			id := binary.BigEndian.Uint32(it.Value)
			if seen[id] {
				t.Fatalf("item %d served twice", id)
			}
			seen[id] = true
			got++
		}
	}
	if got != n {
		t.Fatalf("drained %d items, want %d", got, n)
	}
}
