package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"

	"pq"
	"pq/internal/wire"
)

// TestServeBufferOwnershipStress hammers the pooled-buffer serving path
// from several concurrent connections, each pipelining a randomized mix
// of inserts (values that fit the response buffer and values bigger
// than it), delete-mins, delete-min-batches, protocol errors, and
// bad-version resync frames. Every delivered value must match the
// deterministic pattern derived from its priority — a recycled-too-early
// request payload or queue envelope shows up as a corrupt or
// cross-wired value. Run under -race this is the ownership-discipline
// check for the zero-allocation path. A watcher samples the queue's
// admission word throughout: it must never exceed Capacity, and at
// quiescence it must equal what the books say the queue holds.
func TestServeBufferOwnershipStress(t *testing.T) {
	const (
		queue    = "stress"
		pris     = 64
		shards   = 4
		conns    = 4
		capacity = 2048
	)
	batches := 300
	if testing.Short() {
		batches = 80
	}

	s := New(Config{Concurrency: 8})
	if err := s.AddQueue(QueueSpec{
		Name: queue, Algorithm: pq.FunnelTree, Priorities: pris, Shards: shards,
		Capacity: capacity,
	}); err != nil {
		t.Fatal(err)
	}
	q := s.lookup(queue)
	// The mix pops faster than it inserts, so start full: early inserts
	// race the pops for each freed slot, and the losers are shed.
	for i := 0; i < capacity; i++ {
		v := make([]byte, 8)
		stressValue(v, uint32(i%pris))
		if n, _, err := q.insertN([]wire.Item{{Pri: uint32(i % pris), Value: v}}); n != 1 || err != nil {
			t.Fatalf("prefill %d: %d, %v", i, n, err)
		}
	}
	peak := watchAdmission(q)
	done := make(chan error, 1)
	go func() { done <- s.ListenAndServe("127.0.0.1:0") }()
	defer func() { s.Close(); <-done }()
	var addr net.Addr
	for addr = s.Addr(); addr == nil; addr = s.Addr() {
	}

	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			if err := stressConn(addr.String(), queue, pris, batches, seed); err != nil {
				errs <- err
			}
		}(int64(c + 1))
	}
	wg.Wait()
	checkAdmission(t, q, peak())
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// watchAdmission samples q's admission word until the returned function
// is called, which reports the highest value seen.
func watchAdmission(q *servedQueue) (peak func() int64) {
	stop, hi := make(chan struct{}), make(chan int64)
	go func() {
		var m int64
		for {
			select {
			case <-stop:
				hi <- m
				return
			default:
			}
			m = max(m, q.admitted.Load())
			runtime.Gosched()
		}
	}()
	return func() int64 { close(stop); return <-hi }
}

// checkAdmission: the admission word never exceeded Capacity, and at
// quiescence it equals what the books say the queue holds.
func checkAdmission(t *testing.T, q *servedQueue, peak int64) {
	t.Helper()
	if peak > q.spec.Capacity {
		t.Errorf("admission word peaked at %d, above Capacity %d", peak, q.spec.Capacity)
	}
	if got, held := q.admitted.Load(), q.size(); got != held {
		t.Errorf("admission word %d at quiescence, books hold %d", got, held)
	}
}

// TestAdmissionWordUnderContention: goroutines that insert batches
// faster than others pop keep a bounded queue at its Capacity, so every
// reservation races the pops for the last slots.
func TestAdmissionWordUnderContention(t *testing.T) {
	const capacity, workers = 256, 4
	rounds := 4000
	if testing.Short() {
		rounds = 1000
	}
	q, err := newServedQueue(QueueSpec{Name: "q", Algorithm: pq.FunnelTree, Priorities: 16,
		Shards: 4, Capacity: capacity}, workers)
	if err != nil {
		t.Fatal(err)
	}
	peak := watchAdmission(q)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			items := make([]wire.Item, 16)
			var envs [][]byte
			for r := 0; r < rounds; r++ {
				if seed%2 == 0 {
					for i := range items {
						items[i] = wire.Item{Pri: uint32(rng.Intn(16)), Value: []byte{byte(r)}}
					}
					if _, _, err := q.insertN(items[:1+rng.Intn(len(items))]); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				envs, _, _ = q.popN(1+rng.Intn(4), 1<<20, envs[:0])
				for _, env := range envs {
					wire.PutBuf(env)
				}
			}
		}(int64(w))
	}
	wg.Wait()
	checkAdmission(t, q, peak())
	if q.retryAfter.Load() == 0 {
		t.Error("no insert was shed: the run never reached Capacity")
	}
}

// stressValue fills the pattern every insert uses, so any reader can
// verify a delivered value knowing only its priority and length.
func stressValue(dst []byte, pri uint32) {
	for i := range dst {
		dst[i] = byte(uint32(i)*7 + pri*131)
	}
}

func checkStressValue(v []byte, pri uint32) error {
	for i := range v {
		if v[i] != byte(uint32(i)*7+pri*131) {
			return fmt.Errorf("value byte %d of %d corrupt for pri %d: got %#x want %#x",
				i, len(v), pri, v[i], byte(uint32(i)*7+pri*131))
		}
	}
	return nil
}

// request kinds the stress mix draws from.
const (
	reqInsert = iota // TInsertOK or TRetryAfter
	reqDelete        // TItem or TEmpty
	reqBatch         // TItems
	reqBadQueue
	reqBadPri
	reqBadVersion // resync: answered with TError, connection survives
)

func stressConn(addr, queue string, pris, batches int, seed int64) error {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer nc.Close()
	br := bufio.NewReaderSize(nc, 256<<10)
	rng := rand.New(rand.NewSource(seed))
	// Sizes straddle the response buffer, so values that fit it and
	// values that span several flushes interleave on one connection.
	sizes := []int{8, 4 << 10, respBufSize + 16<<10}
	scratch := make([]byte, respBufSize+16<<10)
	respBuf := make([]byte, wire.MaxFrame)
	var hdr [12]byte

	nextID := uint32(0)
	var batch []byte
	var kinds []int
	for bi := 0; bi < batches; bi++ {
		batch = batch[:0]
		kinds = kinds[:0]
		depth := 8 + rng.Intn(17)
		for r := 0; r < depth; r++ {
			nextID++
			kind := reqInsert
			switch n := rng.Intn(100); {
			case n < 45: // insert
			case n < 80:
				kind = reqDelete
			case n < 88:
				kind = reqBatch
			case n < 92:
				kind = reqBadQueue
			case n < 96:
				kind = reqBadPri
			default:
				kind = reqBadVersion
			}
			kinds = append(kinds, kind)
			switch kind {
			case reqInsert:
				pri := uint32(rng.Intn(pris))
				v := scratch[:sizes[rng.Intn(len(sizes))]]
				stressValue(v, pri)
				batch = wire.AppendFrame(batch, wire.Frame{Type: wire.TInsert, ID: nextID,
					Payload: wire.Insert{Queue: queue, Item: wire.Item{Pri: pri, Value: v}}.Append(nil)})
			case reqDelete:
				batch = wire.AppendFrame(batch, wire.Frame{Type: wire.TDeleteMin, ID: nextID,
					Payload: wire.QueueReq{Queue: queue}.Append(nil)})
			case reqBatch:
				batch = wire.AppendFrame(batch, wire.Frame{Type: wire.TDeleteMinBatch, ID: nextID,
					Payload: wire.DeleteMinBatch{Queue: queue, Max: uint32(1 + rng.Intn(8))}.Append(nil)})
			case reqBadQueue:
				batch = wire.AppendFrame(batch, wire.Frame{Type: wire.TDeleteMin, ID: nextID,
					Payload: wire.QueueReq{Queue: "no-such-queue"}.Append(nil)})
			case reqBadPri:
				batch = wire.AppendFrame(batch, wire.Frame{Type: wire.TInsert, ID: nextID,
					Payload: wire.Insert{Queue: queue, Item: wire.Item{Pri: uint32(pris + 7), Value: scratch[:8]}}.Append(nil)})
			case reqBadVersion:
				n0 := len(batch)
				batch = wire.AppendFrame(batch, wire.Frame{Type: wire.TDeleteMin, ID: nextID,
					Payload: wire.QueueReq{Queue: queue}.Append(nil)})
				batch[n0+4] = 99 // unsupported version: server resyncs + TError
			}
		}
		// Write while reading: a batch of large values can exceed what
		// the socket buffers hold before the server's answers fill them.
		wrote := make(chan error, 1)
		go func() { _, err := nc.Write(batch); wrote <- err }()
		firstID := nextID - uint32(depth) + 1
		for r := 0; r < depth; r++ {
			typ, id, payload, err := readResp(br, &hdr, respBuf)
			if err != nil {
				return fmt.Errorf("batch %d req %d: %w", bi, r, err)
			}
			if id != firstID+uint32(r) {
				return fmt.Errorf("batch %d req %d: response id %d, want %d (responses reordered?)",
					bi, r, id, firstID+uint32(r))
			}
			switch kinds[r] {
			case reqInsert:
				if typ != wire.TInsertOK && typ != wire.TRetryAfter {
					return fmt.Errorf("insert response: got %v", typ)
				}
			case reqDelete:
				switch typ {
				case wire.TEmpty:
				case wire.TItem:
					m, err := wire.DecodeItem(payload)
					if err != nil {
						return fmt.Errorf("bad ITEM: %w", err)
					}
					if err := checkStressValue(m.Value, m.Pri); err != nil {
						return fmt.Errorf("TItem: %w", err)
					}
				default:
					return fmt.Errorf("delete response: got %v", typ)
				}
			case reqBatch:
				if typ != wire.TItems {
					return fmt.Errorf("batch-delete response: got %v", typ)
				}
				m, err := wire.DecodeItems(payload)
				if err != nil {
					return fmt.Errorf("bad ITEMS: %w", err)
				}
				for i, it := range m.Items {
					if err := checkStressValue(it.Value, it.Pri); err != nil {
						return fmt.Errorf("TItems item %d/%d: %w", i, len(m.Items), err)
					}
				}
			case reqBadQueue, reqBadPri, reqBadVersion:
				if typ != wire.TError {
					return fmt.Errorf("error-case response: got %v", typ)
				}
			}
		}
		if err := <-wrote; err != nil {
			return fmt.Errorf("batch %d: write: %w", bi, err)
		}
	}
	return nil
}

// readResp reads one response frame into fixed buffers.
func readResp(br *bufio.Reader, hdr *[12]byte, buf []byte) (wire.Type, uint32, []byte, error) {
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n < 8 || n > wire.MaxFrame {
		return 0, 0, nil, fmt.Errorf("bad response length %d", n)
	}
	payload := buf[:n-8]
	if n > 8 {
		if _, err := io.ReadFull(br, payload); err != nil {
			return 0, 0, nil, err
		}
	}
	return wire.Type(hdr[5]), binary.BigEndian.Uint32(hdr[8:12]), payload, nil
}
