package server

import (
	"context"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"pq"
	"pq/internal/wal"
	"pq/internal/wire"
	"pq/pqclient"
)

// startDurableServer is startServer with a caller-supplied Config and an
// explicit stop function, so restart tests can boot a second server on
// the same data directory.
func startDurableServer(t *testing.T, cfg Config, specs ...QueueSpec) (*Server, string, func() error) {
	t.Helper()
	cfg.Concurrency = 8
	s := New(cfg)
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
	var once sync.Once
	stop := func() error {
		var err error
		once.Do(func() {
			err = s.Close()
			<-done
		})
		return err
	}
	t.Cleanup(func() { stop() })
	return s, addr, stop
}

func itemKey(pri int, value []byte) string { return fmt.Sprintf("%d/%s", pri, value) }

// drainAll empties the queue via batch pops, returning the multiset of
// (pri, value) pairs it observed.
func drainAll(t *testing.T, c *pqclient.Client, queue string) map[string]int {
	t.Helper()
	ctx := context.Background()
	got := map[string]int{}
	for {
		items, err := c.DeleteMinBatch(ctx, queue, 64)
		if err != nil {
			t.Fatalf("DeleteMinBatch: %v", err)
		}
		if len(items) == 0 {
			return got
		}
		for _, it := range items {
			got[itemKey(it.Pri, it.Value)]++
		}
	}
}

// TestDurableRecoveryAfterClose is the in-process crash analogue: Close
// severs without a final snapshot, so the next boot must rebuild the
// queue from the log tail alone — exactly once per acked insert.
func TestDurableRecoveryAfterClose(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir, Fsync: wal.SyncNever}
	spec := QueueSpec{Name: "jobs", Algorithm: pq.FunnelTree, Priorities: 16}

	_, addr, stop := startDurableServer(t, cfg, spec)
	c := dialClient(t, addr)
	ctx := context.Background()

	want := map[string]int{}
	for i := 0; i < 40; i++ {
		pri, val := i%16, []byte(fmt.Sprintf("single-%d", i))
		if err := c.Insert(ctx, "jobs", pri, val); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		want[itemKey(pri, val)]++
	}
	var batch []pqclient.Item
	for i := 0; i < 20; i++ {
		batch = append(batch, pqclient.Item{Pri: i % 16, Value: []byte(fmt.Sprintf("batch-%d", i))})
	}
	if n, err := c.InsertBatch(ctx, "jobs", batch); err != nil || n != len(batch) {
		t.Fatalf("InsertBatch accepted %d, err %v", n, err)
	}
	for _, it := range batch {
		want[itemKey(it.Pri, it.Value)]++
	}
	// Pop a few: their delete records must survive the crash too, or the
	// items would come back as ghosts.
	for i := 0; i < 10; i++ {
		it, ok, err := c.DeleteMin(ctx, "jobs")
		if err != nil || !ok {
			t.Fatalf("DeleteMin: ok=%v err=%v", ok, err)
		}
		k := itemKey(it.Pri, it.Value)
		if want[k] == 0 {
			t.Fatalf("popped unknown item %s", k)
		}
		want[k]--
		if want[k] == 0 {
			delete(want, k)
		}
	}
	c.Close()
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}

	s2, addr2, _ := startDurableServer(t, cfg, spec)
	st, ok := s2.QueueStats("jobs")
	if !ok || st.Durability == nil {
		t.Fatalf("no durability stats after reboot: %+v", st)
	}
	if st.Durability.ReplayedRecords == 0 {
		t.Fatal("boot after Close should have replayed the log tail")
	}
	if st.Durability.RecoveredItems != 50 {
		t.Fatalf("recovered %d items, want 50", st.Durability.RecoveredItems)
	}
	if st.Size != 50 {
		t.Fatalf("size after reboot = %d, want 50", st.Size)
	}

	c2 := dialClient(t, addr2)
	got := drainAll(t, c2, "jobs")
	if len(got) != len(want) {
		t.Fatalf("drained %d distinct items, want %d", len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("item %s: recovered %d copies, want %d", k, got[k], n)
		}
	}
}

// TestGracefulShutdownSealsWAL checks satellite 3: Shutdown takes a
// final snapshot and seals the segments, so the next boot is a pure
// snapshot load with zero records replayed.
func TestGracefulShutdownSealsWAL(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir, Fsync: wal.SyncNever}
	spec := QueueSpec{Name: "jobs", Algorithm: pq.SimpleLinear, Priorities: 8}

	s, addr, stop := startDurableServer(t, cfg, spec)
	c := dialClient(t, addr)
	ctx := context.Background()
	for i := 0; i < 25; i++ {
		if err := c.Insert(ctx, "jobs", i%8, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	stop()

	s2, _, _ := startDurableServer(t, cfg, spec)
	st, _ := s2.QueueStats("jobs")
	if st.Durability == nil {
		t.Fatal("no durability stats")
	}
	if st.Durability.ReplayedRecords != 0 {
		t.Fatalf("boot after graceful shutdown replayed %d records, want 0", st.Durability.ReplayedRecords)
	}
	if st.Durability.RecoveredItems != 25 || st.Size != 25 {
		t.Fatalf("recovered %d items (size %d), want 25", st.Durability.RecoveredItems, st.Size)
	}
	if st.Durability.TornTail {
		t.Fatal("graceful shutdown left a torn tail")
	}
}

// TestAutoSnapshot checks that the log self-compacts once SnapshotEvery
// records have accumulated.
func TestAutoSnapshot(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir, Fsync: wal.SyncNever, SnapshotEvery: 8}
	spec := QueueSpec{Name: "jobs", Algorithm: pq.FunnelTree, Priorities: 8}

	s, addr, _ := startDurableServer(t, cfg, spec)
	c := dialClient(t, addr)
	ctx := context.Background()
	for i := 0; i < 32; i++ {
		if err := c.Insert(ctx, "jobs", i%8, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, _ := s.QueueStats("jobs")
		if st.Durability != nil && st.Durability.Snapshots >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no automatic snapshot after 32 inserts with SnapshotEvery=8: %+v", st.Durability)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The queue still serves correctly mid/post-snapshot.
	got := drainAll(t, c, "jobs")
	if len(got) != 32 {
		t.Fatalf("drained %d items, want 32", len(got))
	}
}

// TestDurabilityStatsPlumbing checks satellite 6 end to end: a durable
// server reports versioned durability fields through pqclient.Stats,
// and an in-memory server reports none.
func TestDurabilityStatsPlumbing(t *testing.T) {
	ctx := context.Background()

	dir := t.TempDir()
	cfg := Config{DataDir: dir, Fsync: wal.SyncAlways}
	_, addr, _ := startDurableServer(t, cfg, QueueSpec{Name: "d", Algorithm: pq.SimpleLinear, Priorities: 4})
	c := dialClient(t, addr)
	if err := c.Insert(ctx, "d", 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(ctx, "d")
	if err != nil {
		t.Fatal(err)
	}
	if st.StatsVersion != wire.StatsVersion {
		t.Fatalf("stats_version = %d, want %d", st.StatsVersion, wire.StatsVersion)
	}
	if st.Durability == nil {
		t.Fatal("durable queue reported no durability stats")
	}
	if st.Durability.FsyncPolicy != "always" {
		t.Fatalf("fsync_policy = %q, want always", st.Durability.FsyncPolicy)
	}
	if st.Durability.Appends == 0 || st.Durability.Fsyncs == 0 {
		t.Fatalf("append/fsync counters not moving: %+v", st.Durability)
	}
	if st.Durability.LastLSN == 0 {
		t.Fatal("last_lsn = 0 after an insert")
	}

	_, addr2 := startServer(t, QueueSpec{Name: "m", Algorithm: pq.SimpleLinear, Priorities: 4})
	c2 := dialClient(t, addr2)
	st2, err := c2.Stats(ctx, "m")
	if err != nil {
		t.Fatal(err)
	}
	if st2.Durability != nil {
		t.Fatalf("in-memory queue reported durability stats: %+v", st2.Durability)
	}
}

// TestSealWaitsForInflightSnapshot: Shutdown's final snapshot must not
// be skipped just because a background fold is mid-flight — sealWAL
// waits its turn, so "boot after graceful shutdown replays zero
// records" holds even when the shutdown races an auto-snapshot.
func TestSealWaitsForInflightSnapshot(t *testing.T) {
	dir := t.TempDir()
	open := func() (*servedQueue, *wal.Log, wal.Recovery) {
		q, err := newServedQueue(QueueSpec{Name: "q", Algorithm: pq.SimpleLinear, Priorities: 4}, 4)
		if err != nil {
			t.Fatal(err)
		}
		l, rec, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		if err := q.attachWAL(l, rec, 0); err != nil {
			t.Fatal(err)
		}
		return q, l, rec
	}
	q, l, _ := open()
	for i := 0; i < 7; i++ {
		if n, _, err := q.insertN([]wire.Item{{Pri: uint32(1 + i%3), Value: []byte{byte(i)}}}); err != nil || n != 1 {
			t.Fatalf("insert %d: accepted=%d err=%v", i, n, err)
		}
	}
	// Churn at the most urgent priority, so the background fold has
	// thousands of records to replay and is still in flight when the seal
	// starts; each pop takes back the item just inserted.
	for i := 0; i < 3000; i++ {
		q.insertN([]wire.Item{{Pri: 0, Value: []byte("churn")}})
		if envs, _, err := q.popN(1, 1<<20, nil); err != nil || len(envs) != 1 || envPri(envs[0]) != 0 {
			t.Fatalf("churn pop %d: %d items, err %v", i, len(envs), err)
		}
	}
	// A real in-flight background fold: StartFold holds the log's single
	// flight from the moment it returns. The seal must wait it out and
	// then take its own snapshot instead of returning without one.
	l.StartFold()
	if err := q.sealWAL(); err != nil {
		t.Fatalf("sealWAL: %v", err)
	}
	if got := l.Stats().Snapshots; got != 2 {
		t.Fatalf("%d snapshots taken, want the background fold's and the seal's", got)
	}

	_, l2, rec := open()
	defer l2.Close()
	if rec.Replayed != 0 {
		t.Fatalf("boot after graceful seal replayed %d records, want 0 (final snapshot was skipped)", rec.Replayed)
	}
	if len(rec.Items) != 7 {
		t.Fatalf("recovered %d items, want 7", len(rec.Items))
	}
}

// TestRecoveredOverflowKeepsAdmissionClosed: a restart with a lowered
// Capacity can recover more items than the bound. The admission word
// books all of them, so pops don't free phantom slots: inserts keep
// shedding until real occupancy is back under the bound.
func TestRecoveredOverflowKeepsAdmissionClosed(t *testing.T) {
	dir := t.TempDir()
	l, _, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	var recs []wal.Item
	for i := 0; i < 5; i++ {
		recs = append(recs, wal.Item{ID: l.AllocIDs(1), Pri: uint32(i % 4), Value: []byte{byte(i)}})
	}
	if err := l.AppendInsert(recs); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reboot with Capacity 3 < the 5 recovered items.
	q, err := newServedQueue(QueueSpec{Name: "q", Algorithm: pq.SimpleLinear, Priorities: 4, Capacity: 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	l2, rec, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if err := q.attachWAL(l2, rec, 0); err != nil {
		t.Fatal(err)
	}
	if got := q.admitted.Load() - q.spec.Capacity; got != 2 {
		t.Fatalf("admission word over Capacity by %d, want 2", got)
	}

	// tryInsert reports whether one more item is admitted.
	tryInsert := func() bool {
		t.Helper()
		n, _, err := q.insertN([]wire.Item{{Pri: 0, Value: []byte("new")}})
		if err != nil {
			t.Fatalf("insert: %v", err)
		}
		return n == 1
	}
	if tryInsert() {
		t.Fatal("insert at occupancy 5/3 admitted, want shed")
	}
	// A batch pop releases the two slots over the bound: still 3 live,
	// still full.
	if items, _, err := q.popN(2, 1<<20, nil); err != nil || len(items) != 2 {
		t.Fatalf("popN(2): %d items, err %v", len(items), err)
	}
	if tryInsert() {
		t.Fatal("insert at occupancy 3/3 admitted, want shed")
	}
	// One more pop drops real occupancy below the bound.
	if items, _, err := q.popN(1, 1<<20, nil); err != nil || len(items) != 1 {
		t.Fatalf("popN(1): %d items, err %v", len(items), err)
	}
	if !tryInsert() {
		t.Fatal("insert at occupancy 2/3 shed, want admitted")
	}
}

// TestDurableQueueNameValidation: a durable queue name becomes a
// directory name, so path-ish names must be rejected.
func TestDurableQueueNameValidation(t *testing.T) {
	s := New(Config{DataDir: t.TempDir()})
	for _, name := range []string{"a/b", `a\b`, ".", ".."} {
		if err := s.AddQueue(QueueSpec{Name: name, Algorithm: pq.SimpleLinear, Priorities: 4}); err == nil {
			t.Errorf("durable queue name %q accepted", name)
		}
	}
}

// TestRolledBackPopLeavesNoRankCharge: a pop whose delete record could
// not be logged is undone completely — the items are back in their
// shards and the cross-shard rank estimator was never charged for a pop
// nobody received.
func TestRolledBackPopLeavesNoRankCharge(t *testing.T) {
	cfg := Config{DataDir: t.TempDir(), Fsync: wal.SyncNever, AllowRelaxed: true}
	srv, addr, _ := startDurableServer(t, cfg, QueueSpec{
		Name: "mq", Algorithm: pq.MultiQueue, Priorities: 32, Shards: 4})
	c := dialRaw(t, addr)
	for i := 0; i < 16; i++ {
		if f := c.insert("mq", wire.Item{Pri: uint32(2 * i), Value: []byte{byte(i)}}); f.Type != wire.TInsertOK {
			t.Fatalf("insert %d: %v", i, f.Type)
		}
	}
	q := srv.lookup("mq")
	if err := q.wal.Close(); err != nil {
		t.Fatal(err)
	}
	rankBooks := func() [7]int64 {
		r := q.rank
		held := func(s int) int64 { return q.shardIn[s].Load() - q.shardOut[s].Load() }
		return [7]int64{r.pops.Load(), r.sum.Load(), r.max.Load(),
			held(0), held(1), held(2), held(3)}
	}
	before := rankBooks()
	if f := c.deleteMin("mq"); f.Type != wire.TError {
		t.Fatalf("DELETE_MIN on a closed log answered %v", f.Type)
	}
	if f := c.deleteMinBatch("mq", 8); f.Type != wire.TError {
		t.Fatalf("DELETE_MIN_BATCH on a closed log answered %v", f.Type)
	}
	if after := rankBooks(); after != before {
		t.Fatalf("rolled-back pops changed the rank estimator: before %v after %v", before, after)
	}
}

// TestByteBudgetCutIsNotAnEmptyDelete: a batch pop that stops because
// the response is full saw a non-empty queue, with or without a WAL.
func TestByteBudgetCutIsNotAnEmptyDelete(t *testing.T) {
	eachDurability(t, func(t *testing.T, durable bool) {
		q, c := contractServer(t, durable, QueueSpec{
			Name: "jobs", Algorithm: pq.SimpleLinear, Priorities: 8, Shards: 4})
		for i := 0; i < 7; i++ {
			it := wire.Item{Pri: uint32(i), Value: make([]byte, 300<<10)}
			if f := c.insert("jobs", it); f.Type != wire.TInsertOK {
				t.Fatalf("insert %d: %v", i, f.Type)
			}
		}
		if got := len(c.itemsOf(c.deleteMinBatch("jobs", 64))); got == 0 || got == 7 {
			t.Fatalf("first response delivered %d of 7 items; the byte budget never cut", got)
		}
		if n := q.emptyDeletes.Load(); n != 0 {
			t.Fatalf("emptyDeletes = %d after a budget-cut pop, want 0", n)
		}
	})
}

// shardBooks reads a queue's per-shard in/out series off the Prometheus
// exposition, indexed by shard.
func shardBooks(t *testing.T, s *Server, queue string) (in, out []int64) {
	t.Helper()
	var buf strings.Builder
	if err := s.writeProm(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		for name, dst := range map[string]*[]int64{
			"pq_queue_shard_inserts_total": &in, "pq_queue_shard_deletes_total": &out} {
			var shard int
			var v float64
			if _, err := fmt.Sscanf(line, name+`{queue="`+queue+`",shard="%d"} %g`, &shard, &v); err == nil {
				for len(*dst) <= shard {
					*dst = append(*dst, 0)
				}
				(*dst)[shard] = int64(v)
			}
		}
	}
	return in, out
}

// TestRecoveredItemsBookedPerShard: a restart books every recovered item
// into its shard's in-count, so the per-shard series add up to the
// queue's Inserts and a full drain leaves every shard at in - out = 0.
func TestRecoveredItemsBookedPerShard(t *testing.T) {
	const k = 24
	dir := t.TempDir()
	cfg := Config{DataDir: dir, Fsync: wal.SyncNever}
	spec := QueueSpec{Name: "jobs", Algorithm: pq.SimpleLinear, Priorities: 16, Shards: 4}

	_, addr, stop := startDurableServer(t, cfg, spec)
	c := dialClient(t, addr)
	ctx := context.Background()
	for i := 0; i < k+6; i++ {
		if err := c.Insert(ctx, "jobs", (i*5)%16, []byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	for i := 0; i < 6; i++ {
		if _, ok, err := c.DeleteMin(ctx, "jobs"); err != nil || !ok {
			t.Fatalf("DeleteMin: ok=%v err=%v", ok, err)
		}
	}
	c.Close()
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}

	s2, addr2, _ := startDurableServer(t, cfg, spec)
	st, _ := s2.QueueStats("jobs")
	in, out := shardBooks(t, s2, "jobs")
	if len(in) != 4 || len(out) != 4 {
		t.Fatalf("shard series: %d inserts, %d deletes, want 4 each", len(in), len(out))
	}
	var sumIn, sumOut int64
	for s := range in {
		sumIn += in[s]
		sumOut += out[s]
	}
	if sumIn != st.Inserts || st.Inserts != k || sumOut != 0 {
		t.Fatalf("after restart: Σ shard inserts %d, Inserts %d, Σ shard deletes %d; want %d, %d, 0",
			sumIn, st.Inserts, sumOut, k, k)
	}

	if got := drainAll(t, dialClient(t, addr2), "jobs"); len(got) != k {
		t.Fatalf("drained %d items, want %d", len(got), k)
	}
	in, out = shardBooks(t, s2, "jobs")
	for s := range in {
		if in[s] != out[s] {
			t.Fatalf("shard %d after full drain: in %d, out %d", s, in[s], out[s])
		}
	}
}

// TestJournalGateWritesRecordsBeforeReplies: a response leaves only once
// the WAL records of every mutation it answers were written. One
// connection asks and waits, so when an answer arrives every record
// staged so far must have been carried: LastLSN equals Appends, under
// each sync policy.
func TestJournalGateWritesRecordsBeforeReplies(t *testing.T) {
	for _, policy := range []wal.SyncPolicy{wal.SyncNever, wal.SyncInterval, wal.SyncAlways} {
		t.Run(policy.String(), func(t *testing.T) {
			cfg := Config{DataDir: t.TempDir(), Fsync: policy, FsyncInterval: time.Hour}
			srv, addr, _ := startDurableServer(t, cfg, QueueSpec{
				Name: "jobs", Algorithm: pq.SimpleLinear, Priorities: 8, Shards: 2})
			c := dialRaw(t, addr)
			carried := func(what string) {
				t.Helper()
				st, _ := srv.QueueStats("jobs")
				if d := st.Durability; d.LastLSN != d.Appends {
					t.Fatalf("after %s: answered with %d records staged but only %d written", what, d.Appends, d.LastLSN)
				}
			}
			for i := 0; i < 4; i++ {
				c.insert("jobs", wire.Item{Pri: uint32(i), Value: []byte{byte(i)}})
				carried("INSERT")
			}
			c.insertBatch("jobs", []wire.Item{{Pri: 5, Value: []byte("a")}, {Pri: 1, Value: []byte("b")}})
			carried("INSERT_BATCH")
			c.deleteMin("jobs")
			carried("DELETE_MIN")
			c.deleteMinBatch("jobs", 3)
			carried("DELETE_MIN_BATCH")
			last := c.pipeline([]wire.Type{wire.TInsert, wire.TDeleteMin}, [][]byte{
				wire.Insert{Queue: "jobs", Item: wire.Item{Pri: 7, Value: []byte("p")}}.Append(nil),
				wire.QueueReq{Queue: "jobs"}.Append(nil),
			})
			for id := last - 1; id <= last; id++ {
				if f, err := c.fr.ReadFrame(c.nc); err != nil || f.ID != id {
					t.Fatalf("pipelined response %d: id %d err %v", id, f.ID, err)
				}
			}
			carried("a pipelined INSERT + DELETE_MIN")
		})
	}
}

// TestBatchStagingZeroAllocAndEnvelopeSlack: once the pooled scratch is
// warm, a 32-item insertN and the popN that takes the items back
// allocate nothing, on a durable queue (whose journal records are built
// in that scratch) as on an in-memory one; and every popped envelope is
// sized to its item, cap ≤ max(64, 2·len).
func TestBatchStagingZeroAllocAndEnvelopeSlack(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("sync.Pool drops items at random under the race detector")
			}
		}
	}
	items := make([]wire.Item, 32)
	for i := range items {
		// Values from empty to past a kilobyte, so the envelopes span
		// several buffer classes.
		items[i] = wire.Item{Pri: uint32(i % 16), Value: make([]byte, i*i+i)}
	}
	for _, durable := range []bool{true, false} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			q, err := newServedQueue(QueueSpec{Name: "q", Algorithm: pq.FunnelTree, Priorities: 16, Shards: 2}, 4)
			if err != nil {
				t.Fatal(err)
			}
			tagLen := 4
			var l *wal.Log
			if durable {
				var rec wal.Recovery
				if l, rec, err = wal.Open(wal.Options{Dir: t.TempDir(), Policy: wal.SyncNever}); err != nil {
					t.Fatal(err)
				}
				defer l.Close()
				if err := q.attachWAL(l, rec, 0); err != nil {
					t.Fatal(err)
				}
				tagLen = durTagLen
			}
			wait := func(lsn uint64) error {
				if l == nil {
					return nil
				}
				return l.Wait(lsn)
			}
			var envs [][]byte
			var bad error
			cycle := func() {
				n, lsn, err := q.insertN(items)
				if err == nil {
					err = wait(lsn)
				}
				if err != nil || n != len(items) {
					bad = fmt.Errorf("insertN: accepted %d of %d, err %v", n, len(items), err)
					return
				}
				envs, lsn, err = q.popN(len(items), wire.MaxPayload, envs[:0])
				if err == nil {
					err = wait(lsn)
				}
				if err != nil || len(envs) != len(items) {
					bad = fmt.Errorf("popN: took %d of %d, err %v", len(envs), len(items), err)
					return
				}
				for _, env := range envs {
					if len(env) < tagLen || cap(env) > max(64, 2*len(env)) {
						bad = fmt.Errorf("envelope of %d bytes has cap %d, want ≤ max(64, 2·len)", len(env), cap(env))
					}
					wire.PutBuf(env)
				}
				clear(envs)
			}
			cycle() // grow the scratch, the envelopes' classes and the log's round buffers
			cycle()
			allocs := testing.AllocsPerRun(100, cycle)
			if bad != nil {
				t.Fatal(bad)
			}
			if allocs != 0 {
				t.Fatalf("%.1f allocations per 32-item insertN + popN, want 0", allocs)
			}
		})
	}
}
