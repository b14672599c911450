package pqclient

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pq/internal/wire"
)

// replyServer answers every request frame with what reply returns for
// it. A zero delay answers at once, in request order; a positive one
// answers that much later, out of line, so later requests on the same
// connection overtake it. reply may be called from several connections'
// goroutines at once.
func replyServer(t *testing.T, reply func(f wire.Frame) (wire.Frame, time.Duration)) string {
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
				var wmu sync.Mutex
				write := func(resp wire.Frame) error {
					wmu.Lock()
					defer wmu.Unlock()
					return wire.WriteFrame(nc, resp)
				}
				for {
					f, err := wire.ReadFrame(nc)
					if err != nil {
						return
					}
					resp, delay := reply(f)
					if delay > 0 {
						time.AfterFunc(delay, func() { write(resp) })
					} else if write(resp) != nil {
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

// ackServer answers every request frame at once: inserts with an
// INSERT_OK admitting all their items, anything else with EMPTY.
func ackServer(t *testing.T) string {
	t.Helper()
	return replyServer(t, func(f wire.Frame) (wire.Frame, time.Duration) {
		switch f.Type {
		case wire.TInsert, wire.TInsertBatch:
			return insertOK(f.ID, len(insertedItems(f)), 0), 0
		}
		return wire.Frame{Type: wire.TEmpty, ID: f.ID}, 0
	})
}

// insertedItems decodes the items of an INSERT or INSERT_BATCH frame.
func insertedItems(f wire.Frame) []wire.Item {
	if f.Type == wire.TInsert {
		m, err := wire.DecodeInsert(f.Payload)
		if err != nil {
			return nil
		}
		return []wire.Item{m.Item}
	}
	m, _ := wire.DecodeInsertBatch(f.Payload)
	return m.Items
}

func insertOK(id uint32, accepted, rejected int) wire.Frame {
	return wire.Frame{Type: wire.TInsertOK, ID: id,
		Payload: wire.InsertOK{Accepted: uint32(accepted), Rejected: uint32(rejected)}.Append(nil)}
}

// echoItem answers a DELETE_MIN with an item naming the request's queue
// and carrying its request id, so a caller can tell its own answer.
func echoItem(f wire.Frame) wire.Frame {
	q, _ := wire.DecodeQueueReq(f.Payload)
	return wire.Frame{Type: wire.TItem, ID: f.ID,
		Payload: wire.AppendItem(nil, wire.Item{Pri: f.ID, Value: []byte(q.Queue)})}
}

// callers runs fn(i) on n goroutines and returns the first error.
func callers(n int, fn func(i int) error) error {
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() { errs <- fn(i) }()
	}
	var first error
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// BC-1: sixteen callers pipelined on one connection each get their own
// result. Requests reach the server in id order and are acked in that
// order, so each caller's inserts are admitted exactly once and in its
// program order, and each DeleteMin returns the item the server sent
// for that very request.
func TestBC1PipelinedCallersGetOwnResults(t *testing.T) {
	const n, rounds = 16, 200
	var (
		mu     sync.Mutex
		lastID uint32
		order  error
		pris   = map[string][]uint32{}
	)
	addr := replyServer(t, func(f wire.Frame) (wire.Frame, time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		if f.ID <= lastID && order == nil {
			order = fmt.Errorf("request id %d after %d", f.ID, lastID)
		}
		lastID = f.ID
		if f.Type == wire.TDeleteMin {
			return echoItem(f), 0
		}
		items := insertedItems(f)
		for _, it := range items {
			pris[string(it.Value)] = append(pris[string(it.Value)], it.Pri)
		}
		return insertOK(f.ID, len(items), 0), 0
	})
	c, err := Dial(Config{Addr: addr, Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	err = callers(n, func(i int) error {
		me := fmt.Sprintf("c%d", i)
		lastID := 0
		for r := 0; r < rounds; r++ {
			if err := c.Insert(ctx, "q", r, []byte(me)); err != nil {
				return err
			}
			it, ok, err := c.DeleteMin(ctx, me)
			if err != nil {
				return err
			}
			if !ok || string(it.Value) != me || it.Pri <= lastID {
				return fmt.Errorf("%s round %d: DeleteMin got (%d, %q, %v) after id %d", me, r, it.Pri, it.Value, ok, lastID)
			}
			lastID = it.Pri
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if order != nil {
		t.Fatal(order)
	}
	for i := 0; i < n; i++ {
		me := fmt.Sprintf("c%d", i)
		got := pris[me]
		if len(got) != rounds {
			t.Fatalf("%s: server admitted %d inserts, want %d", me, len(got), rounds)
		}
		for r, p := range got {
			if p != uint32(r) {
				t.Fatalf("%s: insert %d reached the server as priority %d", me, r, p)
			}
		}
	}
}

// BC-2: a coalesced INSERT_BATCH that the server admits only a prefix
// of resolves each prefix member with nil and each tail member with a
// *RetryError, which Insert retries. The server sheds each item at most
// once, so every Insert succeeds and every item is admitted exactly
// once: a prefix member that retried would be admitted twice, a tail
// member that did not would be missing.
func TestBC2PartialBatchAcceptsPrefixRetriesTail(t *testing.T) {
	const n, rounds = 16, 100
	var (
		mu       sync.Mutex
		shed     = map[string]bool{}
		admitted = map[string]int{}
		partial  int
	)
	addr := replyServer(t, func(f wire.Frame) (wire.Frame, time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		items := insertedItems(f)
		k := len(items)
		if f.Type == wire.TInsertBatch {
			k = (len(items) + 1) / 2
			for _, it := range items {
				if shed[string(it.Value)] {
					k = len(items)
				}
			}
		}
		for i, it := range items {
			if i < k {
				admitted[string(it.Value)]++
			} else {
				shed[string(it.Value)] = true
			}
		}
		if k < len(items) {
			partial++
		}
		return insertOK(f.ID, k, len(items)-k), 0
	})
	c, err := Dial(Config{Addr: addr, Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	err = callers(n, func(i int) error {
		for r := 0; r < rounds; r++ {
			if err := c.Insert(ctx, "q", r, []byte(fmt.Sprintf("c%d-%d", i, r))); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if partial == 0 {
		t.Fatal("no coalesced batch formed, so the contract was not exercised")
	}
	for i := 0; i < n; i++ {
		for r := 0; r < rounds; r++ {
			v := fmt.Sprintf("c%d-%d", i, r)
			if admitted[v] != 1 {
				t.Fatalf("%s admitted %d times, want once", v, admitted[v])
			}
		}
	}
}

// BC-3: a TError or WRONG_NODE answer to a coalesced INSERT_BATCH does
// not fate-share: every member is resent on its own and gets the
// server's verdict on its own item. Here the server accepts even
// priorities and rejects the odd ones singly, 1 mod 4 with TError and
// 3 mod 4 with WRONG_NODE; every batch is refused whole.
func TestBC3BatchRejectResolvesMembersSingly(t *testing.T) {
	const n, rounds = 16, 100
	var (
		mu       sync.Mutex
		admitted = map[string]int{}
		batches  int
	)
	addr := replyServer(t, func(f wire.Frame) (wire.Frame, time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		if f.Type == wire.TInsertBatch {
			batches++
			if f.ID%2 == 1 {
				return wire.Frame{Type: wire.TError, ID: f.ID, Payload: wire.ErrorMsg{Msg: "batch has a bad member"}.Append(nil)}, 0
			}
			return wire.Frame{Type: wire.TWrongNode, ID: f.ID, Payload: wire.WrongNode{MapVersion: 7, Owner: "elsewhere:1"}.Append(nil)}, 0
		}
		it := insertedItems(f)[0]
		switch it.Pri % 4 {
		case 1:
			return wire.Frame{Type: wire.TError, ID: f.ID, Payload: wire.ErrorMsg{Msg: "bad priority"}.Append(nil)}, 0
		case 3:
			return wire.Frame{Type: wire.TWrongNode, ID: f.ID, Payload: wire.WrongNode{MapVersion: 7, Owner: "elsewhere:1"}.Append(nil)}, 0
		}
		admitted[string(it.Value)]++
		return insertOK(f.ID, 1, 0), 0
	})
	c, err := Dial(Config{Addr: addr, Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	err = callers(n, func(i int) error {
		for r := 0; r < rounds; r++ {
			v := fmt.Sprintf("c%d-%d", i, r)
			err := c.Insert(ctx, "q", r, []byte(v))
			var se *ServerError
			var wn *WrongNodeError
			switch r % 4 {
			case 1:
				if !errors.As(err, &se) || se.Msg != "bad priority" {
					return fmt.Errorf("%s: got %v, want the server's own error for it", v, err)
				}
			case 3:
				if !errors.As(err, &wn) || wn.MapVersion != 7 || wn.Owner != "elsewhere:1" {
					return fmt.Errorf("%s: got %v, want a WrongNodeError", v, err)
				}
			default:
				if err != nil {
					return fmt.Errorf("%s: got %v, want nil", v, err)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if batches == 0 {
		t.Fatal("no coalesced batch formed, so the contract was not exercised")
	}
	for i := 0; i < n; i++ {
		for r := 0; r < rounds; r += 2 {
			v := fmt.Sprintf("c%d-%d", i, r)
			if admitted[v] != 1 {
				t.Fatalf("%s admitted %d times, want once", v, admitted[v])
			}
		}
	}
}

// BC-4: a call that outlives RequestTimeout returns
// context.DeadlineExceeded, and its answer, arriving later, reaches
// nobody. Calls made while those late answers land get their own
// results, never a late one.
func TestBC4AbandonedCallsNeverLeak(t *testing.T) {
	const (
		n       = 16
		timeout = 20 * time.Millisecond
		late    = 50 * time.Millisecond
	)
	addr := replyServer(t, func(f wire.Frame) (wire.Frame, time.Duration) {
		var delay time.Duration
		// Every request payload starts with its uint16-prefixed queue name.
		if q := f.Payload[2:]; len(q) >= 4 && string(q[:4]) == "slow" {
			delay = late
		}
		if f.Type == wire.TDeleteMin {
			return echoItem(f), delay
		}
		return insertOK(f.ID, len(insertedItems(f)), 0), delay
	})
	c, err := Dial(Config{Addr: addr, Conns: 1, RequestTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	err = callers(n, func(i int) error {
		if err := c.Insert(ctx, "slow", i, nil); !errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("slow Insert: got %v, want %v", err, context.DeadlineExceeded)
		}
		if _, _, err := c.DeleteMin(ctx, "slow"); !errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("slow DeleteMin: got %v, want %v", err, context.DeadlineExceeded)
		}
		me := fmt.Sprintf("c%d", i)
		for end := time.Now().Add(3 * late); time.Now().Before(end); {
			if err := c.Insert(ctx, me, i, nil); err != nil {
				return fmt.Errorf("%s Insert: %v", me, err)
			}
			it, ok, err := c.DeleteMin(ctx, me)
			if err != nil || !ok || string(it.Value) != me {
				return fmt.Errorf("%s DeleteMin: got (%q, %v, %v), want its own item", me, it.Value, ok, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
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

	it, ok, err := c.DeleteMin(ctx, "q")
	c.Close()
	if err != nil || ok {
		t.Fatalf("delivered call changed by close: (%d, %q, %v) err %v", it.Pri, it.Value, ok, err)
	}
}
