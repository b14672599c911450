package server

import (
	"testing"
	"time"

	"pq"
	"pq/internal/wire"
)

func insertFrame(id uint32, pri uint32) []byte {
	return wire.AppendFrame(nil, wire.Frame{Type: wire.TInsert, ID: id,
		Payload: wire.Insert{Queue: "q", Item: wire.Item{Pri: pri, Value: []byte("v")}}.Append(nil)})
}

// TestFlushBeforePartialFrame pins the flush rule against a client that
// sends one request plus part of the next and waits for the first
// response before sending the rest: the server must flush before it
// blocks reading the partial frame. A rule that only checks whether any
// byte is buffered deadlocks here.
func TestFlushBeforePartialFrame(t *testing.T) {
	var fr wire.FrameReader
	_, addr := startServer(t, QueueSpec{Name: "q", Algorithm: pq.SimpleLinear, Priorities: 4})
	nc, err := netDial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	second := insertFrame(2, 1)
	half := len(second) / 2
	if _, err := nc.Write(append(insertFrame(1, 0), second[:half]...)); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(time.Second))
	f, err := fr.ReadFrame(nc)
	if err != nil {
		t.Fatalf("response to frame 1 did not arrive while frame 2 was partial: %v", err)
	}
	if f.ID != 1 || f.Type != wire.TInsertOK {
		t.Fatalf("first response = %v id %d, want INSERT_OK id 1", f.Type, f.ID)
	}
	if _, err := nc.Write(second[half:]); err != nil {
		t.Fatal(err)
	}
	if f, err = fr.ReadFrame(nc); err != nil || f.ID != 2 || f.Type != wire.TInsertOK {
		t.Fatalf("second response = %v id %d (err %v), want INSERT_OK id 2", f.Type, f.ID, err)
	}
}

// TestFlushBatchCap pins the batch bound: a deep pipeline written in one
// go is answered in order, in at least one flush per 64 requests.
func TestFlushBatchCap(t *testing.T) {
	var fr wire.FrameReader
	const n = 200
	s, addr := startServer(t, QueueSpec{Name: "q", Algorithm: pq.SimpleLinear, Priorities: 4})
	nc, err := netDial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	before := s.met.flushes.Load()
	var batch []byte
	for id := uint32(1); id <= n; id++ {
		batch = append(batch, insertFrame(id, id%4)...)
	}
	if _, err := nc.Write(batch); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	for id := uint32(1); id <= n; id++ {
		f, err := fr.ReadFrame(nc)
		if err != nil {
			t.Fatalf("response %d: %v", id, err)
		}
		if f.ID != id || f.Type != wire.TInsertOK {
			t.Fatalf("response %d = %v id %d, want INSERT_OK in id order", id, f.Type, f.ID)
		}
	}
	// The last flush is counted just after its write lands, so give the
	// counter a moment to catch up with the bytes already read.
	want := int64((n + 63) / 64)
	deadline := time.Now().Add(time.Second)
	for s.met.flushes.Load()-before < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := s.met.flushes.Load() - before; got < want {
		t.Fatalf("pq_response_flushes_total rose by %d for %d pipelined requests, want >= %d", got, n, want)
	}
}
