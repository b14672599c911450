package server

import (
	"encoding/json"
	"fmt"
	"net"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"pq"
	"pq/internal/wal"
	"pq/internal/wire"
)

// Behavioural contracts of the queue mutation paths, written before the
// paths were merged and driven over the wire only, so they hold for any
// implementation behind handle(): they name frames and the queue's
// books (counters, admission value, shard contents), never a mutation
// function.

// queueBooks is everything a mutation may change on a served queue.
type queueBooks struct {
	inserts, deletes, retryAfter, emptyDeletes int64
	admit, size                                int64
	items                                      string // stored contents, sorted
}

func booksOf(q *servedQueue) queueBooks {
	ins, del := q.totals()
	b := queueBooks{
		inserts:      ins,
		deletes:      del,
		retryAfter:   q.retryAfter.Load(),
		emptyDeletes: q.emptyDeletes.Load(),
		admit:        q.admitted.Load(),
		size:         q.size(),
	}
	var items []string
	for _, it := range q.peek(1000) {
		items = append(items, fmt.Sprintf("%d/%s", it.Pri, contractLabel(it.Value)))
	}
	sort.Strings(items)
	b.items = strings.Join(items, " ")
	return b
}

// contractValue is a value of size bytes (at least len(label)+1) that
// starts with label; contractLabel recovers the label.
func contractValue(label string, size int) []byte {
	v := make([]byte, size)
	copy(v, label+"|")
	return v
}

func contractLabel(v []byte) string {
	if i := strings.IndexByte(string(v), '|'); i >= 0 {
		return string(v[:i])
	}
	return string(v)
}

// rawConn is one wire connection speaking frames directly.
type rawConn struct {
	t  *testing.T
	nc net.Conn
	fr wire.FrameReader
	id uint32
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := netDial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &rawConn{t: t, nc: nc}
}

func (c *rawConn) call(typ wire.Type, payload []byte) wire.Frame {
	c.t.Helper()
	c.id++
	if err := wire.WriteFrame(c.nc, wire.Frame{Type: typ, ID: c.id, Payload: payload}); err != nil {
		c.t.Fatal(err)
	}
	f, err := c.fr.ReadFrame(c.nc)
	if err != nil {
		c.t.Fatal(err)
	}
	if f.ID != c.id {
		c.t.Fatalf("response id %d, want %d", f.ID, c.id)
	}
	return f
}

func (c *rawConn) insert(queue string, it wire.Item) wire.Frame {
	c.t.Helper()
	return c.call(wire.TInsert, wire.Insert{Queue: queue, Item: it}.Append(nil))
}

func (c *rawConn) insertBatch(queue string, items []wire.Item) wire.Frame {
	c.t.Helper()
	return c.call(wire.TInsertBatch, wire.InsertBatch{Queue: queue, Items: items}.Append(nil))
}

func (c *rawConn) deleteMin(queue string) wire.Frame {
	c.t.Helper()
	return c.call(wire.TDeleteMin, wire.QueueReq{Queue: queue}.Append(nil))
}

func (c *rawConn) deleteMinBatch(queue string, max int) wire.Frame {
	c.t.Helper()
	return c.call(wire.TDeleteMinBatch, wire.DeleteMinBatch{Queue: queue, Max: uint32(max)}.Append(nil))
}

// pipeline sends frames of the given types and payloads in one write,
// with ids following c.id, and returns the id of the last.
func (c *rawConn) pipeline(typ []wire.Type, payloads [][]byte) uint32 {
	c.t.Helper()
	var buf []byte
	for i, p := range payloads {
		c.id++
		buf = wire.AppendFrame(buf, wire.Frame{Type: typ[i], ID: c.id, Payload: p})
	}
	if _, err := c.nc.Write(buf); err != nil {
		c.t.Fatal(err)
	}
	return c.id
}

// fsyncs is the queue's WAL fsync count, read over the wire by STATS.
func (c *rawConn) fsyncs(queue string) uint64 {
	c.t.Helper()
	f := c.call(wire.TStats, wire.QueueReq{Queue: queue}.Append(nil))
	var st wire.QueueStats
	if err := json.Unmarshal(f.Payload, &st); err != nil || st.Durability == nil {
		c.t.Fatalf("STATS %v: %v %+v", f.Type, err, st)
	}
	return st.Durability.Fsyncs
}

// itemsOf decodes the items a pop response delivered: TItem → 1,
// TEmpty → 0, TItems → its list.
func (c *rawConn) itemsOf(f wire.Frame) []wire.Item {
	c.t.Helper()
	switch f.Type {
	case wire.TEmpty:
		return nil
	case wire.TItem:
		it, err := wire.DecodeItem(f.Payload)
		if err != nil {
			c.t.Fatal(err)
		}
		return []wire.Item{it}
	case wire.TItems:
		m, err := wire.DecodeItems(f.Payload)
		if err != nil {
			c.t.Fatal(err)
		}
		return m.Items
	}
	c.t.Fatalf("pop answered %v", f.Type)
	return nil
}

// contractServer serves one queue, in memory or with a WAL.
func contractServer(t *testing.T, durable bool, spec QueueSpec) (*servedQueue, *rawConn) {
	t.Helper()
	cfg := Config{}
	if durable {
		cfg.DataDir, cfg.Fsync = t.TempDir(), wal.SyncNever
	}
	srv, addr, _ := startDurableServer(t, cfg, spec)
	return srv.lookup(spec.Name), dialRaw(t, addr)
}

func eachDurability(t *testing.T, f func(t *testing.T, durable bool)) {
	t.Run("memory", func(t *testing.T) { f(t, false) })
	t.Run("durable", func(t *testing.T) { f(t, true) })
}

// BC-1
// GIVEN a durable sharded queue holding items whose log has been closed
// WHEN an INSERT, an INSERT_BATCH, a DELETE_MIN and a DELETE_MIN_BATCH arrive
// THEN each answers ERROR "durability: …" and the queue's books — counters,
// admission value, size and every shard's contents — are exactly as before.
func TestContractWALFailureRollsBack(t *testing.T) {
	q, c := contractServer(t, true, QueueSpec{
		Name: "jobs", Algorithm: pq.SimpleLinear, Priorities: 8, Shards: 4, Capacity: 64})
	var seed []wire.Item
	for i := 0; i < 12; i++ {
		seed = append(seed, wire.Item{Pri: uint32(i % 8), Value: []byte(fmt.Sprintf("seed-%d", i))})
	}
	if f := c.insertBatch("jobs", seed); f.Type != wire.TInsertOK {
		t.Fatalf("seeding: %v", f.Type)
	}
	if err := q.wal.Close(); err != nil {
		t.Fatal(err)
	}
	before := booksOf(q)
	if before.size != 12 || before.admit != 12 {
		t.Fatalf("seeded books: %+v", before)
	}

	for _, op := range []struct {
		name string
		do   func() wire.Frame
	}{
		{"INSERT", func() wire.Frame { return c.insert("jobs", wire.Item{Pri: 3, Value: []byte("late")}) }},
		{"INSERT_BATCH", func() wire.Frame {
			return c.insertBatch("jobs", []wire.Item{{Pri: 0, Value: []byte("a")}, {Pri: 7, Value: []byte("b")}})
		}},
		{"DELETE_MIN", func() wire.Frame { return c.deleteMin("jobs") }},
		{"DELETE_MIN_BATCH", func() wire.Frame { return c.deleteMinBatch("jobs", 5) }},
	} {
		f := op.do()
		if f.Type != wire.TError {
			t.Fatalf("%s on a closed log answered %v, want ERROR", op.name, f.Type)
		}
		m, err := wire.DecodeErrorMsg(f.Payload)
		if err != nil || !strings.HasPrefix(m.Msg, "durability: ") {
			t.Fatalf("%s error = %q (%v), want a durability error", op.name, m.Msg, err)
		}
		if after := booksOf(q); after != before {
			t.Fatalf("%s on a closed log changed the books:\n before %+v\n after  %+v", op.name, before, after)
		}
	}
}

// BC-2
// GIVEN two identical bounded queues
// WHEN one receives a request sequence as single frames and the other the
// same sequence with each run of like requests folded into one batch frame
// THEN both deliver the same items and end with identical inserts, deletes,
// retryAfter, emptyDeletes, admission value and contents.
func TestContractSinglesEqualBatch(t *testing.T) {
	eachDurability(t, func(t *testing.T, durable bool) {
		run := func(batched bool) (queueBooks, []string) {
			q, c := contractServer(t, durable, QueueSpec{
				Name: "jobs", Algorithm: pq.SimpleLinear, Priorities: 8, Shards: 4, Capacity: 10})
			next := 0
			var delivered []string
			// insert sends n fresh items and reports how many were admitted.
			insert := func(n int) int {
				items := make([]wire.Item, n)
				for i := range items {
					items[i] = wire.Item{Pri: uint32(next % 8), Value: []byte(fmt.Sprintf("v-%d", next))}
					next++
				}
				if batched {
					f := c.insertBatch("jobs", items)
					switch f.Type {
					case wire.TInsertOK:
						m, err := wire.DecodeInsertOK(f.Payload)
						if err != nil || int(m.Accepted+m.Rejected) != n {
							t.Fatalf("INSERT_BATCH reply %+v err %v", m, err)
						}
						return int(m.Accepted)
					case wire.TRetryAfter:
						return 0
					}
					t.Fatalf("INSERT_BATCH answered %v", f.Type)
				}
				admitted := 0
				for _, it := range items {
					switch f := c.insert("jobs", it); f.Type {
					case wire.TInsertOK:
						admitted++
					case wire.TRetryAfter:
					default:
						t.Fatalf("INSERT answered %v", f.Type)
					}
				}
				return admitted
			}
			// pop asks for n items and reports how many arrived.
			pop := func(n int) int {
				var got []wire.Item
				if batched {
					got = c.itemsOf(c.deleteMinBatch("jobs", n))
				} else {
					for i := 0; i < n; i++ {
						got = append(got, c.itemsOf(c.deleteMin("jobs"))...)
					}
				}
				last := uint32(0)
				for _, it := range got {
					if it.Pri < last {
						t.Fatalf("pop order regressed: pri %d after %d", it.Pri, last)
					}
					last = it.Pri
					delivered = append(delivered, fmt.Sprintf("%d/%s", it.Pri, it.Value))
				}
				return len(got)
			}

			if got := insert(12); got != 10 {
				t.Fatalf("12 inserts into capacity 10 admitted %d", got)
			}
			if got := pop(4); got != 4 {
				t.Fatalf("pop 4 delivered %d", got)
			}
			if got := insert(3); got != 3 {
				t.Fatalf("3 inserts into 6/10 admitted %d", got)
			}
			if f := c.call(wire.TDrain, wire.QueueReq{Queue: "jobs"}.Append(nil)); f.Type != wire.TDrained {
				t.Fatalf("DRAIN answered %v", f.Type)
			}
			if got := insert(2); got != 0 {
				t.Fatalf("draining queue admitted %d", got)
			}
			// One over-ask: both forms count it as one empty delete.
			if got := pop(10); got != 9 {
				t.Fatalf("pop 10 of 9 delivered %d", got)
			}
			sort.Strings(delivered)
			return booksOf(q), delivered
		}
		singles, sd := run(false)
		batch, bd := run(true)
		if singles != batch {
			t.Fatalf("books differ:\n singles %+v\n batch   %+v", singles, batch)
		}
		if strings.Join(sd, " ") != strings.Join(bd, " ") {
			t.Fatalf("deliveries differ:\n singles %v\n batch   %v", sd, bd)
		}
		want := queueBooks{inserts: 13, deletes: 13, retryAfter: 4, emptyDeletes: 1}
		if singles != want {
			t.Fatalf("final books %+v, want %+v", singles, want)
		}
	})
}

// BC-3a
// GIVEN a queue with 5 free admission slots
// WHEN an INSERT_BATCH of 12 arrives
// THEN exactly the first 5 items are stored, 7 are counted shed, and the
// admission value is 5.
func TestContractCapacityCutAdmitsPrefix(t *testing.T) {
	eachDurability(t, func(t *testing.T, durable bool) {
		q, c := contractServer(t, durable, QueueSpec{
			Name: "jobs", Algorithm: pq.SimpleLinear, Priorities: 8, Shards: 4, Capacity: 5})
		items := make([]wire.Item, 12)
		for i := range items {
			items[i] = wire.Item{Pri: uint32(7 - i%8), Value: []byte(fmt.Sprintf("v-%d", i))}
		}
		f := c.insertBatch("jobs", items)
		m, err := wire.DecodeInsertOK(f.Payload)
		if f.Type != wire.TInsertOK || err != nil || m.Accepted != 5 || m.Rejected != 7 {
			t.Fatalf("reply %v %+v err %v, want INSERT_OK accepted 5 rejected 7", f.Type, m, err)
		}
		got := booksOf(q)
		want := queueBooks{inserts: 5, retryAfter: 7, admit: 5, size: 5,
			items: "3/v-4 4/v-3 5/v-2 6/v-1 7/v-0"}
		if got != want {
			t.Fatalf("books %+v, want %+v", got, want)
		}
	})
}

// BC-3b
// GIVEN a sharded queue holding 7 values of 300 KiB
// WHEN a DELETE_MIN_BATCH asks for 64
// THEN the response fits a frame and delivers k < 7 items, the other 7-k
// are each in their shard exactly once with the books charged for k pops
// only, and further pops deliver each of them exactly once.
func TestContractByteBudgetCutReturnsTail(t *testing.T) {
	eachDurability(t, func(t *testing.T, durable bool) {
		const n, valSize = 7, 300 << 10
		q, c := contractServer(t, durable, QueueSpec{
			Name: "jobs", Algorithm: pq.SimpleLinear, Priorities: 8, Shards: 4, Capacity: 16})
		for i := 0; i < n; i++ {
			it := wire.Item{Pri: uint32(i), Value: contractValue(fmt.Sprintf("big-%d", i), valSize)}
			if f := c.insert("jobs", it); f.Type != wire.TInsertOK {
				t.Fatalf("insert %d: %v", i, f.Type)
			}
		}
		first := c.itemsOf(c.deleteMinBatch("jobs", 64))
		k := len(first)
		if k == 0 || k >= n {
			t.Fatalf("first response delivered %d of %d items; the byte budget never cut", k, n)
		}
		var wantLeft []string
		for i := k; i < n; i++ {
			wantLeft = append(wantLeft, fmt.Sprintf("%d/big-%d", i, i))
		}
		got := booksOf(q)
		// Whether a cut pop also counts as an empty delete is not part of
		// this contract (the two durability modes disagreed when it was written).
		got.emptyDeletes = 0
		want := queueBooks{inserts: n, deletes: int64(k), admit: int64(n - k), size: int64(n - k),
			items: strings.Join(wantLeft, " ")}
		if got != want {
			t.Fatalf("books after the cut pop %+v, want %+v", got, want)
		}
		for i, it := range first {
			if int(it.Pri) != i || len(it.Value) != valSize || contractLabel(it.Value) != fmt.Sprintf("big-%d", i) {
				t.Fatalf("first response item %d: pri %d, %d bytes, label %q", i, it.Pri, len(it.Value), contractLabel(it.Value))
			}
		}
		for i := k; i < n; {
			rest := c.itemsOf(c.deleteMinBatch("jobs", 64))
			if len(rest) == 0 {
				t.Fatalf("queue ran dry with items %d..%d undelivered", i, n-1)
			}
			for _, it := range rest {
				if int(it.Pri) != i || contractLabel(it.Value) != fmt.Sprintf("big-%d", i) {
					t.Fatalf("item %d arrived as pri %d label %q", i, it.Pri, contractLabel(it.Value))
				}
				i++
			}
		}
		if f := c.deleteMin("jobs"); f.Type != wire.TEmpty {
			t.Fatalf("pop after full delivery answered %v", f.Type)
		}
		if end := booksOf(q); end.size != 0 || end.admit != 0 || end.items != "" {
			t.Fatalf("books after full delivery %+v", end)
		}
	})
}

// BC-5
// GIVEN a durable queue under -fsync always
// WHEN 32 INSERT frames arrive in one write on one connection
// THEN each is answered INSERT_OK, at the cost of at most 4 fsyncs: the
// connection's responses wait for WAL rounds once per flush, not once per
// request.
func TestContractOneRoundPerResponseFlush(t *testing.T) {
	cfg := Config{DataDir: t.TempDir(), Fsync: wal.SyncAlways}
	_, addr, _ := startDurableServer(t, cfg, QueueSpec{Name: "jobs", Algorithm: pq.SimpleLinear, Priorities: 8})
	c := dialRaw(t, addr)
	before := c.fsyncs("jobs")
	const n = 32
	types, payloads := make([]wire.Type, n), make([][]byte, n)
	for i := range payloads {
		types[i] = wire.TInsert
		payloads[i] = wire.Insert{Queue: "jobs", Item: wire.Item{Pri: uint32(i % 8), Value: []byte{byte(i)}}}.Append(nil)
	}
	last := c.pipeline(types, payloads)
	for id := last - n + 1; id <= last; id++ {
		f, err := c.fr.ReadFrame(c.nc)
		if err != nil || f.Type != wire.TInsertOK || f.ID != id {
			t.Fatalf("response for %d: %v id %d err %v", id, f.Type, f.ID, err)
		}
	}
	if got := c.fsyncs("jobs") - before; got > 4 {
		t.Fatalf("%d pipelined INSERTs cost %d fsyncs, want at most 4", n, got)
	}
}

// redirectSegment, where the system supports it, makes the next write
// to the open WAL segment under dir fail (contract_linux_test.go).
var redirectSegment func(t *testing.T, dir string)

// BC-6
// GIVEN a durable queue holding acked items whose next WAL write fails
// WHEN an INSERT and a DELETE_MIN arrive pipelined on one connection
// THEN neither is answered and the connection closes; an INSERT on a new
// connection answers ERROR "durability: …"; and a restart recovers exactly
// the items acked before the fault.
func TestContractRoundFailureClosesConnection(t *testing.T) {
	if redirectSegment == nil {
		t.Skip("needs a way to fail the next write of an open file")
	}
	dir := t.TempDir()
	cfg := Config{DataDir: dir, Fsync: wal.SyncNever}
	spec := QueueSpec{Name: "jobs", Algorithm: pq.SimpleLinear, Priorities: 8, Shards: 2}
	_, addr, stop := startDurableServer(t, cfg, spec)
	c := dialRaw(t, addr)
	var acked []string
	for i := 0; i < 6; i++ {
		it := wire.Item{Pri: uint32(7 - i), Value: []byte(fmt.Sprintf("acked-%d", i))}
		if f := c.insert("jobs", it); f.Type != wire.TInsertOK {
			t.Fatalf("insert %d: %v", i, f.Type)
		}
		acked = append(acked, fmt.Sprintf("%d/%s", it.Pri, it.Value))
	}
	sort.Strings(acked)

	redirectSegment(t, filepath.Join(dir, "jobs"))
	c.pipeline([]wire.Type{wire.TInsert, wire.TDeleteMin}, [][]byte{
		wire.Insert{Queue: "jobs", Item: wire.Item{Pri: 0, Value: []byte("lost")}}.Append(nil),
		wire.QueueReq{Queue: "jobs"}.Append(nil),
	})
	c.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	if f, err := c.fr.ReadFrame(c.nc); err == nil {
		t.Fatalf("answered %v after its WAL round failed", f.Type)
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("the connection stayed open after its WAL round failed")
	}

	f := dialRaw(t, addr).insert("jobs", wire.Item{Pri: 1, Value: []byte("refused")})
	if m, err := wire.DecodeErrorMsg(f.Payload); f.Type != wire.TError || err != nil || !strings.HasPrefix(m.Msg, "durability: ") {
		t.Fatalf("INSERT on a poisoned log answered %v %q", f.Type, m.Msg)
	}

	stop()
	srv, _, _ := startDurableServer(t, cfg, spec)
	if got := booksOf(srv.lookup("jobs")).items; got != strings.Join(acked, " ") {
		t.Fatalf("restart recovered %q, want the acked %q", got, strings.Join(acked, " "))
	}
}

// BC-7
// GIVEN a one-shard queue of each kind of LIFO storage (lock bins, funnel
// stacks, a heap) holding a, b, c, d inserted in that order at one
// priority, which pop as d c b a
// WHEN the queue is peeked, a DELETE_MIN_BATCH's byte budget keeps only
// the first item popped, or (durable) a DELETE_MIN_BATCH is refused by a
// closed log
// THEN every item put back keeps its place: after the peek the queue pops
// d c b a, after the cut it delivers d and then pops c b a, and after the
// refusal it still holds d c b a in pop order.
func TestContractPutBackKeepsPopOrder(t *testing.T) {
	const cutSize = 600 << 10 // two of these overflow one frame
	labels := func(items []wire.Item) string {
		var out []string
		for _, it := range items {
			out = append(out, contractLabel(it.Value))
		}
		return strings.Join(out, " ")
	}
	for _, alg := range []pq.Algorithm{pq.SimpleLinear, pq.FunnelTree, pq.SingleLock} {
		t.Run(string(alg), func(t *testing.T) {
			fill := func(c *rawConn, size int) {
				t.Helper()
				for _, l := range []string{"a", "b", "c", "d"} {
					if f := c.insert("jobs", wire.Item{Pri: 3, Value: contractValue(l, size)}); f.Type != wire.TInsertOK {
						t.Fatalf("insert %s: %v", l, f.Type)
					}
				}
			}
			spec := QueueSpec{Name: "jobs", Algorithm: alg, Priorities: 8, Shards: 1}

			q, c := contractServer(t, false, spec)
			fill(c, 8)
			if got := labels(q.peek(4)); got != "d c b a" {
				t.Fatalf("peek saw %q, want d c b a", got)
			}
			if got := labels(c.itemsOf(c.deleteMinBatch("jobs", 4))); got != "d c b a" {
				t.Fatalf("after a peek the queue popped %q, want d c b a", got)
			}

			_, c = contractServer(t, false, spec)
			fill(c, cutSize)
			if got := labels(c.itemsOf(c.deleteMinBatch("jobs", 4))); got != "d" {
				t.Fatalf("the cut pop delivered %q, want d", got)
			}
			var rest []string
			for range 3 {
				rest = append(rest, labels(c.itemsOf(c.deleteMin("jobs"))))
			}
			if got := strings.Join(rest, " "); got != "c b a" {
				t.Fatalf("after the cut the queue popped %q, want c b a", got)
			}

			q, c = contractServer(t, true, spec)
			fill(c, 8)
			if err := q.wal.Close(); err != nil {
				t.Fatal(err)
			}
			if f := c.deleteMinBatch("jobs", 4); f.Type != wire.TError {
				t.Fatalf("DELETE_MIN_BATCH on a closed log answered %v, want ERROR", f.Type)
			}
			if got := labels(q.peek(4)); got != "d c b a" {
				t.Fatalf("after the refused pop the queue holds %q in pop order, want d c b a", got)
			}
		})
	}
}
