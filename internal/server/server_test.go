package server

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"pq"
	"pq/internal/wire"
	"pq/pqclient"
)

func netDial(addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, 5*time.Second)
}

// startServer runs a server on a loopback listener and returns it plus
// its address; cleanup tears it down.
func startServer(t *testing.T, specs ...QueueSpec) (*Server, string) {
	t.Helper()
	s := New(Config{Concurrency: 8})
	for _, spec := range specs {
		if err := s.AddQueue(spec); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- s.ListenAndServe("127.0.0.1:0") }()
	var addr string
	for i := 0; i < 200; i++ {
		if a := s.Addr(); a != nil {
			addr = a.String()
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if addr == "" {
		t.Fatal("server did not start listening")
	}
	t.Cleanup(func() {
		s.Close()
		<-done
	})
	return s, addr
}

func dialClient(t *testing.T, addr string, tweak ...func(*pqclient.Config)) *pqclient.Client {
	t.Helper()
	cfg := pqclient.Config{Addr: addr, RequestTimeout: 10 * time.Second}
	for _, f := range tweak {
		f(&cfg)
	}
	c, err := pqclient.Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestQueueSpecValidation(t *testing.T) {
	s := New(Config{})
	for _, spec := range []QueueSpec{
		{Name: "", Algorithm: pq.SimpleLinear, Priorities: 4},
		{Name: strings.Repeat("q", wire.MaxName+1), Algorithm: pq.SimpleLinear, Priorities: 4},
		{Name: "q", Algorithm: pq.SimpleLinear, Priorities: 0},
		{Name: "q", Algorithm: pq.SimpleLinear, Priorities: 4, Capacity: -1},
		{Name: "q", Algorithm: pq.SimpleLinear, Priorities: 4, Shards: -2},
		{Name: "q", Algorithm: "NoSuchAlg", Priorities: 4},
	} {
		if err := s.AddQueue(spec); err == nil {
			t.Errorf("spec %+v accepted", spec)
		}
	}
	if err := s.AddQueue(QueueSpec{Name: "q", Algorithm: pq.SimpleLinear, Priorities: 4}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddQueue(QueueSpec{Name: "q", Algorithm: pq.SimpleTree, Priorities: 4}); err == nil {
		t.Error("duplicate name accepted")
	}
}

func TestShardPartition(t *testing.T) {
	// 10 priorities over 4 shards: every priority maps to exactly one
	// shard, bases are contiguous, and shards exceeding the priority
	// count clamp.
	q, err := newServedQueue(QueueSpec{Name: "q", Algorithm: pq.SimpleLinear, Priorities: 10, Shards: 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.shards) != 4 {
		t.Fatalf("shards = %d", len(q.shards))
	}
	prev := -1
	for pri := 0; pri < 10; pri++ {
		s := q.shardFor(pri)
		if s < 0 || s >= 4 {
			t.Fatalf("pri %d -> shard %d", pri, s)
		}
		if s < prev {
			t.Fatalf("shard ordering broke at pri %d", pri)
		}
		prev = s
		if pri < q.bases[s] || pri >= q.bases[s+1] {
			t.Fatalf("pri %d outside its shard range [%d,%d)", pri, q.bases[s], q.bases[s+1])
		}
	}

	clamped, err := newServedQueue(QueueSpec{Name: "q", Algorithm: pq.SimpleLinear, Priorities: 3, Shards: 8}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(clamped.shards) != 3 {
		t.Fatalf("clamped shards = %d, want 3", len(clamped.shards))
	}
}

func TestInsertDeleteRoundTrip(t *testing.T) {
	_, addr := startServer(t, QueueSpec{Name: "jobs", Algorithm: pq.SimpleLinear, Priorities: 8, Shards: 2})
	c := dialClient(t, addr)
	ctx := context.Background()

	// Insert out of priority order; delete-min must honor priorities
	// across shard boundaries (shard 0 = pris 0-3, shard 1 = 4-7).
	for _, pri := range []int{6, 1, 4, 0} {
		v := make([]byte, 4)
		binary.BigEndian.PutUint32(v, uint32(pri))
		if err := c.Insert(ctx, "jobs", pri, v); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []int{0, 1, 4, 6} {
		it, ok, err := c.DeleteMin(ctx, "jobs")
		if err != nil || !ok {
			t.Fatalf("DeleteMin: ok=%v err=%v", ok, err)
		}
		if it.Pri != want {
			t.Fatalf("DeleteMin pri = %d, want %d", it.Pri, want)
		}
		if got := int(binary.BigEndian.Uint32(it.Value)); got != want {
			t.Fatalf("value round-trip: got %d want %d", got, want)
		}
	}
	if _, ok, err := c.DeleteMin(ctx, "jobs"); err != nil || ok {
		t.Fatalf("empty queue: ok=%v err=%v", ok, err)
	}
}

func TestUnknownQueueAndBadPriority(t *testing.T) {
	_, addr := startServer(t, QueueSpec{Name: "jobs", Algorithm: pq.SimpleLinear, Priorities: 4})
	c := dialClient(t, addr)
	ctx := context.Background()

	var se *pqclient.ServerError
	if err := c.Insert(ctx, "nope", 0, nil); err == nil {
		t.Error("unknown queue accepted")
	} else if !asServerError(err, &se) {
		t.Errorf("unknown queue: %v", err)
	}
	if err := c.Insert(ctx, "jobs", 99, nil); err == nil {
		t.Error("out-of-range priority accepted")
	} else if !asServerError(err, &se) {
		t.Errorf("bad priority: %v", err)
	}
	if _, _, err := c.DeleteMin(ctx, "nope"); err == nil {
		t.Error("unknown queue delete accepted")
	}
}

func asServerError(err error, target **pqclient.ServerError) bool {
	return errors.As(err, target)
}

func TestAdmissionControlSheds(t *testing.T) {
	_, addr := startServer(t, QueueSpec{Name: "small", Algorithm: pq.SimpleLinear, Priorities: 4, Capacity: 8})
	// Disable client-side retry so the shed surfaces immediately.
	c := dialClient(t, addr, func(cfg *pqclient.Config) { cfg.MaxRetries = -1 })
	ctx := context.Background()

	shed := 0
	for i := 0; i < 32; i++ {
		err := c.Insert(ctx, "small", i%4, nil)
		if err != nil {
			if !isOverload(err) {
				t.Fatalf("insert %d: %v", i, err)
			}
			shed++
		}
	}
	if shed == 0 {
		t.Fatal("capacity 8 absorbed 32 inserts with no shed")
	}
	st, err := c.Stats(ctx, "small")
	if err != nil {
		t.Fatal(err)
	}
	if st.RetryAfter == 0 {
		t.Error("server reports no RETRY_AFTER sheds")
	}
	if st.Inserts > st.Capacity {
		t.Errorf("admitted %d items past capacity %d", st.Inserts, st.Capacity)
	}

	// Free a slot; inserts must flow again (retry path).
	if _, ok, err := c.DeleteMin(ctx, "small"); err != nil || !ok {
		t.Fatalf("DeleteMin: ok=%v err=%v", ok, err)
	}
	retrier := dialClient(t, addr)
	if err := retrier.Insert(ctx, "small", 0, nil); err != nil {
		t.Fatalf("insert after free: %v", err)
	}
}

func isOverload(err error) bool {
	var re *pqclient.RetryError
	return errors.Is(err, pqclient.ErrOverload) || errors.As(err, &re)
}

func TestInsertBatchAdmitsPrefix(t *testing.T) {
	_, addr := startServer(t, QueueSpec{Name: "small", Algorithm: pq.SimpleLinear, Priorities: 4, Capacity: 5})
	c := dialClient(t, addr)
	ctx := context.Background()

	items := make([]pqclient.Item, 12)
	for i := range items {
		items[i] = pqclient.Item{Pri: i % 4}
	}
	accepted, err := c.InsertBatch(ctx, "small", items)
	if accepted != 5 {
		t.Fatalf("accepted = %d, want 5", accepted)
	}
	if _, ok := err.(*pqclient.RetryError); !ok {
		t.Fatalf("want RetryError for rejected tail, got %v", err)
	}
}

func TestDrainStopsInsertsAllowsDeletes(t *testing.T) {
	_, addr := startServer(t, QueueSpec{Name: "jobs", Algorithm: pq.FunnelTree, Priorities: 16, Shards: 2})
	c := dialClient(t, addr, func(cfg *pqclient.Config) { cfg.MaxRetries = -1 })
	ctx := context.Background()

	for i := 0; i < 10; i++ {
		if err := c.Insert(ctx, "jobs", i, nil); err != nil {
			t.Fatal(err)
		}
	}
	rem, err := c.Drain(ctx, "jobs")
	if err != nil {
		t.Fatal(err)
	}
	if rem != 10 {
		t.Fatalf("Drain remaining = %d, want 10", rem)
	}
	if err := c.Insert(ctx, "jobs", 0, nil); !isOverload(err) {
		t.Fatalf("insert after drain: %v", err)
	}
	got, err := c.DeleteMinBatch(ctx, "jobs", 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("drained %d items, want 10", len(got))
	}
}

func TestGracefulShutdownSevers(t *testing.T) {
	s, addr := startServer(t, QueueSpec{Name: "jobs", Algorithm: pq.SimpleLinear, Priorities: 4})
	c := dialClient(t, addr)
	ctx := context.Background()
	if err := c.Insert(ctx, "jobs", 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	shCtx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	// The client connection stays open, so Shutdown hits the deadline
	// and severs it — still a clean return.
	if err := s.Shutdown(shCtx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want deadline exceeded", err)
	}
}

func TestRawWireErrors(t *testing.T) {
	var fr wire.FrameReader
	// Unknown frame types get a TError reply, not a dropped connection.
	_, addr := startServer(t, QueueSpec{Name: "jobs", Algorithm: pq.SimpleLinear, Priorities: 4})
	nc, err := netDial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := wire.WriteFrame(nc, wire.Frame{Type: wire.Type(0x7f), ID: 9}); err != nil {
		t.Fatal(err)
	}
	f, err := fr.ReadFrame(nc)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != wire.TError || f.ID != 9 {
		t.Fatalf("got %v id=%d, want ERROR id=9", f.Type, f.ID)
	}
	// The connection must still serve the next request.
	if err := wire.WriteFrame(nc, wire.Frame{Type: wire.TStats, ID: 10,
		Payload: wire.QueueReq{Queue: "jobs"}.Append(nil)}); err != nil {
		t.Fatal(err)
	}
	if f, err = fr.ReadFrame(nc); err != nil || f.Type != wire.TStatsReply {
		t.Fatalf("after error frame: %v %v", f.Type, err)
	}

	// A frame with an unknown protocol version likewise gets a TError
	// by id (the rollout guarantee) and the connection keeps serving.
	raw := wire.AppendFrame(nil, wire.Frame{Type: wire.TInsert, ID: 21,
		Payload: wire.Insert{Queue: "jobs", Item: wire.Item{Pri: 1, Value: []byte("v")}}.Append(nil)})
	raw[4] = 9 // version byte
	if _, err := nc.Write(raw); err != nil {
		t.Fatal(err)
	}
	if f, err = fr.ReadFrame(nc); err != nil || f.Type != wire.TError || f.ID != 21 {
		t.Fatalf("bad-version frame: type=%v id=%d err=%v, want ERROR id=21", f.Type, f.ID, err)
	}
	if err := wire.WriteFrame(nc, wire.Frame{Type: wire.TDeleteMin, ID: 22,
		Payload: wire.QueueReq{Queue: "jobs"}.Append(nil)}); err != nil {
		t.Fatal(err)
	}
	if f, err = fr.ReadFrame(nc); err != nil || f.ID != 22 {
		t.Fatalf("after bad-version frame: %v %v", f.Type, err)
	}
}

// TestDeleteMinBatchRespectsFrameLimit fills a queue with values big
// enough that a max-count batch would blow past wire.MaxFrame, then
// drains with DeleteMinBatch: every response must stay decodable (the
// server stops popping before the frame overflows and puts the
// overflowing item back), and every item must come out exactly once.
func TestDeleteMinBatchRespectsFrameLimit(t *testing.T) {
	_, addr := startServer(t, QueueSpec{Name: "big", Algorithm: pq.SimpleLinear, Priorities: 8})
	c := dialClient(t, addr, func(cfg *pqclient.Config) { cfg.RequestTimeout = 30 * time.Second })
	ctx := context.Background()

	const n, valSize = 7, 300 << 10 // 7 × 300 KiB ≈ 2 MiB > MaxFrame
	for i := 0; i < n; i++ {
		v := make([]byte, valSize)
		binary.BigEndian.PutUint32(v, uint32(i))
		if err := c.Insert(ctx, "big", i%8, v); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}

	seen := make([]bool, n)
	rounds, got := 0, 0
	for {
		items, err := c.DeleteMinBatch(ctx, "big", 64)
		if err != nil {
			t.Fatalf("batch round %d: %v", rounds, err)
		}
		if len(items) == 0 {
			break
		}
		rounds++
		for _, it := range items {
			if len(it.Value) != valSize {
				t.Fatalf("value truncated to %d bytes", len(it.Value))
			}
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
	if rounds < 2 {
		t.Fatalf("all %d large items arrived in %d response(s); frame cap never engaged", n, rounds)
	}
}

// TestBatchRoundTripShardedCapacity drives the native batch paths end
// to end on a sharded, capacity-bounded queue: batched inserts reserve
// admission slots with one multi-unit counter increment and fan out to
// the shards' native InsertBatch, the drain pulls through the shards'
// native DeleteMinBatch with values large enough that the frame budget
// forces putBackN mid-batch, and the multi-unit decrement on delivery
// frees every admission slot exactly once — proven by refilling the
// queue to capacity afterwards.
func TestBatchRoundTripShardedCapacity(t *testing.T) {
	const (
		n       = 24
		valSize = 150 << 10 // 24 × 150 KiB ≈ 3.5 MiB > MaxFrame
		chunk   = 6         // insert request: 6 × 150 KiB < MaxFrame
	)
	_, addr := startServer(t, QueueSpec{
		Name: "jobs", Algorithm: pq.FunnelTree, Priorities: 8, Shards: 4, Capacity: n})
	c := dialClient(t, addr, func(cfg *pqclient.Config) {
		cfg.RequestTimeout = 30 * time.Second
	})
	ctx := context.Background()

	// Fill to capacity with batched inserts spread over every shard.
	fill := func() {
		for base := 0; base < n; base += chunk {
			items := make([]pqclient.Item, chunk)
			for j := range items {
				id := base + j
				v := make([]byte, valSize)
				binary.BigEndian.PutUint32(v, uint32(id))
				items[j] = pqclient.Item{Pri: id % 8, Value: v}
			}
			accepted, err := c.InsertBatch(ctx, "jobs", items)
			if err != nil {
				t.Fatalf("insert batch at %d: %v", base, err)
			}
			if accepted != chunk {
				t.Fatalf("insert batch at %d: accepted %d, want %d", base, accepted, chunk)
			}
		}
	}
	fill()

	// Full queue: a further batch must be shed whole with a retry hint.
	if accepted, err := c.InsertBatch(ctx, "jobs", []pqclient.Item{{Pri: 0}, {Pri: 1}}); accepted != 0 || !isOverload(err) {
		t.Fatalf("insert into full queue: accepted=%d err=%v", accepted, err)
	}

	// Drain. The frame budget must split the response into several
	// rounds (exercising putBackN), every item must arrive exactly once
	// and untruncated, and — since each round runs at quiescence — the
	// full delivery order must be nondecreasing in priority.
	seen := make([]bool, n)
	rounds, lastPri := 0, -1
	for {
		items, err := c.DeleteMinBatch(ctx, "jobs", 64)
		if err != nil {
			t.Fatalf("batch round %d: %v", rounds, err)
		}
		if len(items) == 0 {
			break
		}
		rounds++
		for _, it := range items {
			if len(it.Value) != valSize {
				t.Fatalf("value truncated to %d bytes", len(it.Value))
			}
			id := binary.BigEndian.Uint32(it.Value)
			if seen[id] {
				t.Fatalf("item %d served twice", id)
			}
			seen[id] = true
			if it.Pri < lastPri {
				t.Fatalf("delivery order regressed: pri %d after %d", it.Pri, lastPri)
			}
			lastPri = it.Pri
		}
	}
	for id, ok := range seen {
		if !ok {
			t.Fatalf("item %d lost", id)
		}
	}
	if rounds < 2 {
		t.Fatalf("all %d large items arrived in %d response(s); frame cap never engaged", n, rounds)
	}

	st, err := c.Stats(ctx, "jobs")
	if err != nil {
		t.Fatal(err)
	}
	if st.Inserts != n || st.Deletes != n || st.Size != 0 {
		t.Fatalf("stats after drain: inserts=%d deletes=%d size=%d, want %d/%d/0",
			st.Inserts, st.Deletes, st.Size, n, n)
	}

	// The drain's popCommitN must have freed every admission slot: a
	// second fill to capacity succeeds in full.
	fill()
}

// TestClientRejectsOversizedRequests checks that requests the server's
// frame limit could never accept fail client-side with a descriptive
// error — and without poisoning the connection for later requests.
func TestClientRejectsOversizedRequests(t *testing.T) {
	_, addr := startServer(t, QueueSpec{Name: "jobs", Algorithm: pq.SimpleLinear, Priorities: 4})
	c := dialClient(t, addr)
	ctx := context.Background()

	if err := c.Insert(ctx, "jobs", 0, make([]byte, wire.MaxValue+1)); err == nil {
		t.Fatal("oversized value accepted")
	} else if _, isServer := err.(*pqclient.ServerError); isServer {
		t.Fatalf("oversized value reached the server: %v", err)
	}

	big := make([]pqclient.Item, 40)
	for i := range big {
		big[i] = pqclient.Item{Pri: 1, Value: make([]byte, 40<<10)}
	}
	if _, err := c.InsertBatch(ctx, "jobs", big); err == nil {
		t.Fatal("oversized batch accepted")
	} else if _, isServer := err.(*pqclient.ServerError); isServer {
		t.Fatalf("oversized batch reached the server: %v", err)
	}

	// The same client must still work.
	if err := c.Insert(ctx, "jobs", 1, []byte("ok")); err != nil {
		t.Fatalf("insert after rejections: %v", err)
	}
	if it, ok, err := c.DeleteMin(ctx, "jobs"); err != nil || !ok || string(it.Value) != "ok" {
		t.Fatalf("delete after rejections: %v %v", ok, err)
	}
}

// TestCoalescedErrorNotFateShared mixes valid inserts with out-of-range
// priorities on one heavily-coalesced connection: the server TErrors any
// batch containing a bad item, so the client must resend coalesced
// members individually — valid inserts all succeed, invalid ones all
// fail with ServerError, and nothing is lost or duplicated.
func TestCoalescedErrorNotFateShared(t *testing.T) {
	const pris = 8
	_, addr := startServer(t, QueueSpec{Name: "jobs", Algorithm: pq.SimpleLinear, Priorities: pris})
	c := dialClient(t, addr)
	ctx := context.Background()

	const n = 240
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			pri := i % pris
			if i%5 == 4 {
				pri = pris + i // out of range, must fail alone
			}
			v := make([]byte, 4)
			binary.BigEndian.PutUint32(v, uint32(i))
			errs[i] = c.Insert(ctx, "jobs", pri, v)
		}()
	}
	wg.Wait()

	valid := 0
	for i, err := range errs {
		if i%5 == 4 {
			var se *pqclient.ServerError
			if !errors.As(err, &se) {
				t.Errorf("bad insert %d: err = %v, want ServerError", i, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("valid insert %d fate-shared a batch error: %v", i, err)
			continue
		}
		valid++
	}
	if t.Failed() {
		t.FailNow()
	}

	seen := make(map[uint32]bool, valid)
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
		}
	}
	if len(seen) != valid {
		t.Fatalf("drained %d items, want %d", len(seen), valid)
	}
}
