package pqclient

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pq/internal/wire"
)

// ackServer answers every request frame at once: inserts with an
// INSERT_OK admitting all their items, anything else with EMPTY.
func ackServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		conns []net.Conn
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, nc)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					f, err := wire.ReadFrame(nc)
					if err != nil {
						return
					}
					resp := wire.Frame{Type: wire.TEmpty, ID: f.ID}
					switch f.Type {
					case wire.TInsert:
						resp = wire.Frame{Type: wire.TInsertOK, ID: f.ID, Payload: wire.InsertOK{Accepted: 1}.Append(nil)}
					case wire.TInsertBatch:
						m, _ := wire.DecodeInsertBatch(f.Payload)
						resp = wire.Frame{Type: wire.TInsertOK, ID: f.ID, Payload: wire.InsertOK{Accepted: uint32(len(m.Items))}.Append(nil)}
					}
					if wire.WriteFrame(nc, resp) != nil {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, nc := range conns {
			nc.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	return ln.Addr().String()
}

// TestCloseFinishesEveryCall is the connection's close contract: every
// call handed to a conn is finished exactly once, with the close error
// when the conn dies first, and promptly — with no request timeout to
// fall back on, a stranded call would wait forever. A call whose
// response was already delivered keeps its result.
func TestCloseFinishesEveryCall(t *testing.T) {
	const (
		producers = 8
		kills     = 50
	)
	c, err := Dial(Config{Addr: ackServer(t), Conns: 1, RequestTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	errKilled := errors.New("test: connection killed")

	var (
		stop              atomic.Bool
		started, returned atomic.Int64
		wg                sync.WaitGroup
		badMu             sync.Mutex
		bad               error
	)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				started.Add(1)
				var err error
				if i%4 == 3 {
					_, _, err = c.DeleteMin(ctx, "q")
				} else {
					err = c.Insert(ctx, "q", i%8, nil)
				}
				returned.Add(1)
				if err != nil && !errors.Is(err, errKilled) {
					badMu.Lock()
					bad = err
					badMu.Unlock()
				}
			}
		}()
	}
	for k := 0; k < kills; k++ {
		time.Sleep(2 * time.Millisecond)
		c.mu.Lock()
		cn := c.conns[0]
		c.mu.Unlock()
		if cn != nil {
			cn.close(errKilled)
		}
	}
	stop.Store(true)
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("%d of %d calls still unfinished 2s after their connection closed",
			started.Load()-returned.Load(), started.Load())
	}
	if bad != nil {
		t.Fatalf("call finished with %v, want nil or the close error", bad)
	}

	cl := &call{kind: wire.TDeleteMin, queue: "q", payload: wire.QueueReq{Queue: "q"}.Append(nil), done: make(chan struct{})}
	if err := c.do(ctx, cl); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if cl.err != nil || cl.resp.Type != wire.TEmpty {
		t.Fatalf("delivered call changed by close: type %v err %v", cl.resp.Type, cl.err)
	}
}
