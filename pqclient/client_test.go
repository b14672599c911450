package pqclient

import (
	"bufio"
	"context"
	"encoding/binary"
	"flag"
	"math"
	"net"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pq"
	"pq/internal/server"
	"pq/internal/wal"
	"pq/internal/wire"
)

// TestClientZeroAlloc is the call path's allocation budget: callers
// pipelined on one connection, each alternating Insert and DeleteMin on
// a queue that never runs empty. A pair may allocate once, the value
// DeleteMin returns, so Insert allocates nothing. The count is
// process-wide, so it includes the server. Against the real in-process
// server it runs with one caller, whose rounds hold one call each (the
// solo INSERT and DELETE_MIN paths), and with sixteen (INSERT_BATCH and
// DELETE_MIN_BATCH on a FunnelTree), in memory and durable (interval
// fsync, no snapshots: the request path through the journal); against
// zeroAllocStub, which allocates nothing itself, with sixteen. The race
// detector makes sync.Pool drop records at random, so the count only
// means something without it.
func TestClientZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("timed benchmark run")
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation counts are not meaningful under the race detector")
			}
		}
	}
	mem := serveQueue(t, server.Config{Concurrency: 8})
	durable := serveQueue(t, server.Config{Concurrency: 8,
		DataDir: t.TempDir(), Fsync: wal.SyncInterval, SnapshotEvery: -1})
	benchtime := flag.Lookup("test.benchtime").Value
	defer benchtime.Set(benchtime.String())
	benchtime.Set("300ms")
	for _, tc := range []struct {
		name string
		addr string
		n    int
	}{
		{"server_solo", mem, 1},
		{"server_coalescing", mem, 16},
		{"durable_coalescing", durable, 16},
		{"stub_coalescing", zeroAllocStub(t), 16},
	} {
		c, err := Dial(Config{Addr: tc.addr})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		n := tc.n
		ctx := context.Background()
		value := make([]byte, 16)
		var empty atomic.Int64
		pairs := func(total int) error {
			return callers(n, func(i int) error {
				for j := i; j < total; j += n {
					if err := c.Insert(ctx, "q", j%64, value); err != nil {
						return err
					}
					if _, ok, err := c.DeleteMin(ctx, "q"); err != nil {
						return err
					} else if !ok {
						empty.Add(1)
					}
				}
				return nil
			})
		}
		for i := 0; i < 4*n; i++ {
			if err := c.Insert(ctx, "q", i%64, value); err != nil {
				t.Fatal(err)
			}
		}
		r := testing.Benchmark(func(b *testing.B) {
			if err := pairs(4096); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			b.ReportAllocs()
			if err := pairs(b.N); err != nil {
				b.Fatal(err)
			}
		})
		if r.N == 0 {
			t.Fatalf("%s: benchmark failed", tc.name)
		}
		t.Logf("%s: %d pairs, %d mallocs, %.0f ns/pair", tc.name, r.N, r.MemAllocs, float64(r.T.Nanoseconds())/float64(r.N))
		if e := empty.Load(); e != 0 {
			t.Fatalf("%s: %d DeleteMin calls found the queue empty, so the pair count does not bound Insert", tc.name, e)
		}
		if r.AllocsPerOp() > 1 {
			t.Errorf("%s: %d allocs per Insert+DeleteMin pair (%d mallocs over %d), want at most 1: the returned value",
				tc.name, r.AllocsPerOp(), r.MemAllocs, r.N)
		}
	}
}

// serveQueue starts an in-process server with cfg, serving queue "q"
// (FunnelTree, 64 priorities, 4 shards), and returns its address. The
// server closes when the test ends.
func serveQueue(t *testing.T, cfg server.Config) string {
	t.Helper()
	srv := server.New(cfg)
	if err := srv.AddQueue(server.QueueSpec{Name: "q", Algorithm: pq.FunnelTree, Priorities: 64, Shards: 4}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0") }()
	t.Cleanup(func() { srv.Close(); <-done })
	for srv.Addr() == nil {
		select {
		case err := <-done:
			t.Fatalf("server: %v", err)
		case <-time.After(time.Millisecond):
		}
	}
	return srv.Addr().String()
}

// zeroAllocStub acks every insert frame, answers a DELETE_MIN_BATCH
// with max 16-byte items and every other request with one, allocating
// nothing per frame, so a count of process-wide allocations sees only
// the client's.
func zeroAllocStub(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Cleanup runs once the test's clients have closed their
	// connections, which ends every connection goroutine.
	var wg sync.WaitGroup
	t.Cleanup(func() { ln.Close(); wg.Wait() })
	item := wire.AppendItem(nil, wire.Item{Pri: 1, Value: make([]byte, 16)})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer nc.Close()
				br, bw := bufio.NewReader(nc), bufio.NewWriter(nc)
				var fr wire.FrameReader
				var out []byte
				for {
					f, err := fr.ReadFrame(br)
					if err != nil {
						return
					}
					var off int
					switch f.Type {
					case wire.TInsert:
						out, off = wire.BeginFrame(out[:0], wire.TInsertOK, f.ID)
						out = wire.InsertOK{Accepted: 1}.Append(out)
					case wire.TInsertBatch:
						// The item count follows the uint16-prefixed queue name.
						n := binary.BigEndian.Uint32(f.Payload[2+binary.BigEndian.Uint16(f.Payload):])
						out, off = wire.BeginFrame(out[:0], wire.TInsertOK, f.ID)
						out = wire.InsertOK{Accepted: n}.Append(out)
					case wire.TDeleteMinBatch:
						// max is the last 4 bytes of the payload.
						n := binary.BigEndian.Uint32(f.Payload[len(f.Payload)-4:])
						out, off = wire.BeginFrame(out[:0], wire.TItems, f.ID)
						out = binary.BigEndian.AppendUint32(out, n)
						for ; n > 0; n-- {
							out = append(out, item...)
						}
					default:
						out, off = wire.BeginFrame(out[:0], wire.TItem, f.ID)
						out = append(out, item...)
					}
					wire.PutBuf(f.Payload)
					if _, err := bw.Write(wire.EndFrame(out, off)); err != nil {
						return
					}
					if br.Buffered() == 0 && bw.Flush() != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestRejectsQueueNameAboveWireLimit: the wire carries a uint16 name
// length, so a longer name must be refused rather than cut to a prefix
// that may name another queue. Nothing reaches the server.
func TestRejectsQueueNameAboveWireLimit(t *testing.T) {
	var frames atomic.Int64
	addr := replyServer(t, func(f wire.Frame) (wire.Frame, time.Duration) {
		frames.Add(1)
		return insertOK(f.ID, len(insertedItems(f)), 0), 0
	})
	c, err := Dial(Config{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	long := strings.Repeat("q", wire.MaxName+3)
	if err := c.Insert(ctx, long, 1, nil); err == nil {
		t.Error("Insert accepted a queue name above the wire limit")
	}
	if _, err := c.InsertBatch(ctx, long, []Item{{Pri: 1}}); err == nil {
		t.Error("InsertBatch accepted a queue name above the wire limit")
	}
	if _, _, err := c.DeleteMin(ctx, long); err == nil {
		t.Error("DeleteMin accepted a queue name above the wire limit")
	}
	if n := frames.Load(); n != 0 {
		t.Errorf("%d request frames reached the server, want 0", n)
	}
}

// TestInsertRejectsPriorityAbove32Bits: the wire carries a uint32
// priority, so an int priority above it must be refused rather than
// wrapped into a small, urgent one. Nothing reaches the server.
func TestInsertRejectsPriorityAbove32Bits(t *testing.T) {
	var frames atomic.Int64
	addr := replyServer(t, func(f wire.Frame) (wire.Frame, time.Duration) {
		frames.Add(1)
		return insertOK(f.ID, len(insertedItems(f)), 0), 0
	})
	c, err := Dial(Config{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if err := c.Insert(ctx, "q", math.MaxUint32+4, nil); err == nil {
		t.Error("Insert admitted priority 2^32+3")
	}
	if n, err := c.InsertBatch(ctx, "q", []Item{{Pri: 1}, {Pri: math.MaxUint32 + 8}}); err == nil {
		t.Errorf("InsertBatch admitted priority 2^32+7 (%d accepted)", n)
	}
	if n := frames.Load(); n != 0 {
		t.Errorf("%d request frames reached the server, want 0", n)
	}
}
