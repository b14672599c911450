package server

import (
	"bufio"
	"encoding/binary"
	"flag"
	"io"
	"net"
	"runtime/debug"
	"testing"

	"pq"
	"pq/internal/wire"
)

// BenchmarkServeLoopback measures the steady-state request→response
// path of the serving stack over a real loopback TCP connection. The
// driver speaks raw, pre-encoded wire frames (no client library, no
// per-op allocation on the driver side), so the reported allocs/op is
// the serving path's own budget: reader, decode, queue mutation,
// response encode, flush. TestServeLoopbackZeroAlloc gates on it
// staying at zero for the in-memory insert/delete-min path.
//
// Sub-benchmarks:
//
//	insert_delete   depth-2 pipeline (1 insert + 1 delete per iter)
//	pipelined16     depth-16 pipeline (8 inserts + 8 deletes per iter)
//	pipelined16_4k  same, with 4 KiB values
//	pipelined4_80k  depth-4 pipeline with 80 KiB values, bigger than the
//	                response buffer, so they are written straight through
var serveLoopbackCases = []struct {
	name             string
	pairs, valueSize int
}{
	{"insert_delete", 1, 16},
	{"pipelined16", 8, 16},
	{"pipelined16_4k", 8, 4096},
	{"pipelined4_80k", 2, 80 << 10},
}

func BenchmarkServeLoopback(b *testing.B) {
	for _, c := range serveLoopbackCases {
		b.Run(c.name, func(b *testing.B) { benchServeLoopback(b, c.pairs, c.valueSize) })
	}
}

// TestServeLoopbackZeroAlloc is the zero-allocation contract of the
// serving path: every BenchmarkServeLoopback sub-benchmark must report
// exactly 0 allocs/op. The race detector makes sync.Pool drop items at
// random, so the count only means something without it.
func TestServeLoopbackZeroAlloc(t *testing.T) {
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
	benchtime := flag.Lookup("test.benchtime").Value
	defer benchtime.Set(benchtime.String())
	benchtime.Set("300ms")
	for _, c := range serveLoopbackCases {
		r := testing.Benchmark(func(b *testing.B) { benchServeLoopback(b, c.pairs, c.valueSize) })
		if r.N == 0 {
			t.Fatalf("%s: benchmark failed", c.name)
		}
		t.Logf("%s: %d iterations, %d mallocs, %.0f ns/req", c.name, r.N, r.MemAllocs, r.Extra["ns/req"])
		if r.AllocsPerOp() != 0 {
			t.Errorf("%s: %d allocs/op (%d mallocs over %d iterations), want 0", c.name, r.AllocsPerOp(), r.MemAllocs, r.N)
		}
	}
}

// benchServeLoopback drives pairs insert/delete pairs per iteration
// through one pipelined write, then reads all 2*pairs responses.
func benchServeLoopback(b *testing.B, pairs, valueSize int) {
	const (
		queue  = "bench"
		pris   = 64
		shards = 4
	)
	s := New(Config{Concurrency: 8})
	if err := s.AddQueue(QueueSpec{
		Name: queue, Algorithm: pq.FunnelTree, Priorities: pris, Shards: shards,
	}); err != nil {
		b.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.ListenAndServe("127.0.0.1:0") }()
	defer func() { s.Close(); <-done }()
	var addr net.Addr
	for addr = s.Addr(); addr == nil; addr = s.Addr() {
	}
	nc, err := net.Dial("tcp", addr.String())
	if err != nil {
		b.Fatal(err)
	}
	defer nc.Close()

	// Pre-encode the whole pipelined request batch once; only request
	// ids and priorities are patched in place per iteration.
	value := make([]byte, valueSize)
	for i := range value {
		value[i] = byte(i)
	}
	var batch []byte
	var idOffs, priOffs []int
	for p := 0; p < pairs; p++ {
		idOffs = append(idOffs, len(batch)+8)
		priOffs = append(priOffs, len(batch)+4+8+2+len(queue))
		batch = wire.AppendFrame(batch, wire.Frame{Type: wire.TInsert,
			Payload: wire.Insert{Queue: queue, Item: wire.Item{Pri: 1, Value: value}}.Append(nil)})
		idOffs = append(idOffs, len(batch)+8)
		batch = wire.AppendFrame(batch, wire.Frame{Type: wire.TDeleteMin,
			Payload: wire.QueueReq{Queue: queue}.Append(nil)})
	}

	br := bufio.NewReaderSize(nc, 256<<10)
	rr := benchRespReader{br: br, buf: make([]byte, wire.MaxFrame)}
	nextID := uint32(1)
	iter := func() {
		for p := 0; p < pairs; p++ {
			binary.BigEndian.PutUint32(batch[idOffs[2*p]:], nextID)
			binary.BigEndian.PutUint32(batch[priOffs[p]:], nextID%pris)
			binary.BigEndian.PutUint32(batch[idOffs[2*p+1]:], nextID+1)
			nextID += 2
		}
		if _, err := nc.Write(batch); err != nil {
			b.Fatal(err)
		}
		for p := 0; p < pairs; p++ {
			if t, _ := rr.next(b); t != wire.TInsertOK {
				b.Fatalf("insert response: got %v", t)
			}
			if t, _ := rr.next(b); t != wire.TItem {
				b.Fatalf("delete response: got %v", t)
			}
		}
	}

	// Warm the path (lazy pools, histograms, funnel records) before
	// measuring the steady state.
	for i := 0; i < 2000/pairs+16; i++ {
		iter()
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		iter()
	}
	b.StopTimer()
	ops := float64(b.N) * float64(2*pairs)
	b.ReportMetric(ops/b.Elapsed().Seconds(), "ops/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/ops, "ns/req")
}

// benchRespReader reads one response frame into a fixed buffer without
// allocating.
type benchRespReader struct {
	br  *bufio.Reader
	hdr [12]byte
	buf []byte
}

func (rr *benchRespReader) next(b *testing.B) (wire.Type, uint32) {
	if _, err := io.ReadFull(rr.br, rr.hdr[:]); err != nil {
		b.Fatal(err)
	}
	n := binary.BigEndian.Uint32(rr.hdr[:4])
	if n < 8 || n > wire.MaxFrame {
		b.Fatalf("bad response length %d", n)
	}
	if n > 8 {
		if _, err := io.ReadFull(rr.br, rr.buf[:n-8]); err != nil {
			b.Fatal(err)
		}
	}
	return wire.Type(rr.hdr[5]), binary.BigEndian.Uint32(rr.hdr[8:12])
}
