package pqclient

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pq"
	"pq/internal/server"
	"pq/internal/wire"
)

// replyServer answers every request frame with what reply returns for
// it. A zero delay answers at once, in request order; a positive one
// answers that much later, out of line, so later requests on the same
// connection overtake it. reply may be called from several connections'
// goroutines at once.
func replyServer(t *testing.T, reply func(f wire.Frame) (wire.Frame, time.Duration)) string {
	t.Helper()
	addr, _ := countingReplyServer(t, reply)
	return addr
}

// countingReplyServer is replyServer that also counts the connections
// it has accepted.
func countingReplyServer(t *testing.T, reply func(f wire.Frame) (wire.Frame, time.Duration)) (string, *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		conns    []net.Conn
		accepted atomic.Int32
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
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
				var fr wire.FrameReader
				for {
					f, err := fr.ReadFrame(nc)
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
	return ln.Addr().String(), &accepted
}

// ackServer answers every request frame at once: inserts with an
// INSERT_OK admitting all their items, a DELETE_MIN_BATCH with no
// items, anything else with EMPTY.
func ackServer(t *testing.T) string {
	t.Helper()
	return replyServer(t, func(f wire.Frame) (wire.Frame, time.Duration) {
		switch f.Type {
		case wire.TInsert, wire.TInsertBatch:
			return insertOK(f.ID, len(insertedItems(f)), 0), 0
		case wire.TDeleteMinBatch:
			return wire.Frame{Type: wire.TItems, ID: f.ID, Payload: wire.Items{}.Append(nil)}, 0
		}
		return wire.Frame{Type: wire.TEmpty, ID: f.ID}, 0
	})
}

// insertedItems decodes the items of an INSERT or INSERT_BATCH frame.
func insertedItems(f wire.Frame) []wire.Item {
	if f.Type == wire.TInsert {
		m, err := wire.DecodeInsertView(f.Payload)
		if err != nil {
			return nil
		}
		return []wire.Item{m.Item}
	}
	m, _ := wire.DecodeInsertBatchView(f.Payload, nil)
	return m.Items
}

func insertOK(id uint32, accepted, rejected int) wire.Frame {
	return wire.Frame{Type: wire.TInsertOK, ID: id,
		Payload: wire.InsertOK{Accepted: uint32(accepted), Rejected: uint32(rejected)}.Append(nil)}
}

// echoItem answers a DELETE_MIN with an item naming the request's queue
// and carrying its request id, so a caller can tell its own answer.
func echoItem(f wire.Frame) wire.Frame {
	q, _ := wire.DecodeQueueReqView(f.Payload)
	return wire.Frame{Type: wire.TItem, ID: f.ID,
		Payload: wire.AppendItem(nil, wire.Item{Pri: f.ID, Value: q.Queue})}
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
	c, err := Dial(Config{Addr: addr})
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
	c, err := Dial(Config{Addr: addr})
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
	c, err := Dial(Config{Addr: addr})
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
	c, err := Dial(Config{Addr: addr, RequestTimeout: timeout})
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

// TestCloseRacingSlotZeroYieldsErrClosed: callers take the connection
// with one atomic load, without the client's mutex, so Close can land
// between a caller's pick and its enqueue. Every call racing Close finishes with nil or ErrClosed, and
// every call that starts after Close has returned gets ErrClosed.
func TestCloseRacingSlotZeroYieldsErrClosed(t *testing.T) {
	addr := ackServer(t)
	ctx := context.Background()
	for round := 0; round < 20; round++ {
		c, err := Dial(Config{Addr: addr, RequestTimeout: -1})
		if err != nil {
			t.Fatal(err)
		}
		var closed atomic.Bool
		go func() {
			time.Sleep(time.Duration(round%4) * 100 * time.Microsecond)
			c.Close()
			closed.Store(true)
		}()
		err = callers(8, func(i int) error {
			for {
				after := closed.Load()
				err := c.Insert(ctx, "q", i, nil)
				switch {
				case after && !errors.Is(err, ErrClosed):
					return fmt.Errorf("a call after Close returned %v, want ErrClosed", err)
				case err != nil && !errors.Is(err, ErrClosed):
					return fmt.Errorf("a call racing Close returned %v, want nil or ErrClosed", err)
				case after:
					return nil
				}
			}
		})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
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
	c, err := Dial(Config{Addr: ackServer(t), RequestTimeout: -1})
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
		if cn := c.cn.Load(); cn != nil {
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

// itemsFrame answers a request with the ITEMS payload of items.
func itemsFrame(id uint32, items []wire.Item) wire.Frame {
	return wire.Frame{Type: wire.TItems, ID: id, Payload: wire.Items{Items: items}.Append(nil)}
}

// itemSource hands out items 0, 1, 2, ... up to n, the item's
// priority being its number, to a stub server.
type itemSource struct {
	mu        sync.Mutex
	next, n   uint32
	remaining atomic.Int64
}

func newItemSource(n uint32) *itemSource {
	s := &itemSource{n: n}
	s.remaining.Store(int64(n))
	return s
}

func (s *itemSource) take(k uint32) []wire.Item {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []wire.Item
	for ; k > 0 && s.next < s.n; k-- {
		out = append(out, wire.Item{Pri: s.next, Value: []byte(fmt.Sprint(s.next))})
		s.next++
		s.remaining.Add(-1)
	}
	return out
}

// answer serves a DELETE_MIN from s: one item, or EMPTY.
func (s *itemSource) answer(f wire.Frame) wire.Frame {
	if items := s.take(1); len(items) > 0 {
		return wire.Frame{Type: wire.TItem, ID: f.ID, Payload: wire.AppendItem(nil, items[0])}
	}
	return wire.Frame{Type: wire.TEmpty, ID: f.ID}
}

// drainOnce runs n callers that each DeleteMin until the queue reads
// empty, and checks that every item src still held reached exactly one
// caller and that nobody read empty while src held items.
func drainOnce(t *testing.T, c *Client, src *itemSource, n int) {
	t.Helper()
	src.mu.Lock()
	first := src.next
	src.mu.Unlock()
	var mu sync.Mutex
	got := map[int]int{}
	err := callers(n, func(int) error {
		for {
			it, ok, err := c.DeleteMin(context.Background(), "q")
			if err != nil {
				return err
			}
			if !ok {
				if r := src.remaining.Load(); r != 0 {
					return fmt.Errorf("DeleteMin read empty with %d items still queued", r)
				}
				return nil
			}
			if string(it.Value) != fmt.Sprint(it.Pri) {
				return fmt.Errorf("item %d arrived with value %q", it.Pri, it.Value)
			}
			mu.Lock()
			got[it.Pri]++
			mu.Unlock()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := first; i < src.n; i++ {
		if got[int(i)] != 1 {
			t.Fatalf("item %d delivered %d times, want once", i, got[int(i)])
		}
	}
}

// BC-5: concurrent DeleteMins to one queue go out as one
// DELETE_MIN_BATCH, and its answer is shared out exactly. An empty
// answer resolves every member EMPTY from that one frame. A short
// non-empty answer serves its members in wire order, one distinct item
// each, and asks again for the rest: it may be the server's byte budget
// cutting the batch, so it never reads as empty. A TError resolves each
// member on its own frame.
func TestBC5DeleteGroups(t *testing.T) {
	const n, rounds = 16, 50
	ctx := context.Background()

	t.Run("EmptyAnswerResolvesEveryMember", func(t *testing.T) {
		var batches, asked atomic.Int64
		addr := replyServer(t, func(f wire.Frame) (wire.Frame, time.Duration) {
			if f.Type == wire.TDeleteMinBatch {
				m, _ := wire.DecodeDeleteMinBatchView(f.Payload)
				batches.Add(1)
				asked.Add(int64(m.Max))
				return itemsFrame(f.ID, nil), 0
			}
			asked.Add(1)
			return wire.Frame{Type: wire.TEmpty, ID: f.ID}, 0
		})
		c, err := Dial(Config{Addr: addr})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		err = callers(n, func(int) error {
			for r := 0; r < rounds; r++ {
				if _, ok, err := c.DeleteMin(ctx, "q"); err != nil || ok {
					return fmt.Errorf("DeleteMin on an empty queue: ok=%v err=%v", ok, err)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if batches.Load() == 0 {
			t.Fatal("no delete group formed, so the contract was not exercised")
		}
		if got := asked.Load(); got != n*rounds {
			t.Fatalf("the server was asked for %d items by %d calls: an empty answer must resolve its whole group", got, n*rounds)
		}
	})

	t.Run("ShortAnswerServesInWireOrderAndReasksTail", func(t *testing.T) {
		const total = n * rounds
		src := newItemSource(total)
		var short atomic.Int64
		addr := replyServer(t, func(f wire.Frame) (wire.Frame, time.Duration) {
			if f.Type != wire.TDeleteMinBatch {
				return src.answer(f), 0
			}
			m, _ := wire.DecodeDeleteMinBatchView(f.Payload)
			items := src.take((m.Max + 1) / 2)
			if len(items) > 0 && len(items) < int(m.Max) {
				short.Add(1)
			}
			return itemsFrame(f.ID, items), 0
		})
		c, err := Dial(Config{Addr: addr})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()

		// Three calls linked in one round: the first two get the two
		// items of the short answer in order, the third is asked again.
		cn, err := c.conn()
		if err != nil {
			t.Fatal(err)
		}
		calls := [3]*call{newCall(wire.TDeleteMin, "q"), newCall(wire.TDeleteMin, "q"), newCall(wire.TDeleteMin, "q")}
		cn.mu.Lock()
		lead := cn.link(calls[0])
		cn.link(calls[1])
		cn.link(calls[2])
		cn.mu.Unlock()
		if !lead {
			t.Fatal("an idle conn did not hand its first caller the round")
		}
		cn.lead(nil)
		for i, cl := range calls {
			<-cl.done
			if cl.err != nil || cl.resp.Type != wire.TItem || cl.item.Pri != uint32(i) {
				t.Fatalf("member %d: got %s %+v (%v), want item %d", i, cl.resp.Type, cl.item, cl.err, i)
			}
			cl.recycle()
		}
		if short.Load() != 1 {
			t.Fatalf("%d short answers, want 1", short.Load())
		}
		drainOnce(t, c, src, n)
		if short.Load() < 2 {
			t.Fatal("no short answer to a concurrent group, so the contract was not exercised")
		}
	})

	t.Run("TErrorResolvesMembersSingly", func(t *testing.T) {
		const total = n * rounds
		src := newItemSource(total)
		var batches atomic.Int64
		addr := replyServer(t, func(f wire.Frame) (wire.Frame, time.Duration) {
			if f.Type == wire.TDeleteMinBatch {
				batches.Add(1)
				return wire.Frame{Type: wire.TError, ID: f.ID, Payload: wire.ErrorMsg{Msg: "no batches here"}.Append(nil)}, 0
			}
			return src.answer(f), 0
		})
		c, err := Dial(Config{Addr: addr})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		drainOnce(t, c, src, n)
		if batches.Load() == 0 {
			t.Fatal("no delete group formed, so the contract was not exercised")
		}
	})

	t.Run("BudgetCutAgainstServer", func(t *testing.T) {
		// Three 300 KiB items fill one response frame, so a group of
		// sixteen is cut twice before the queue runs empty.
		const items = 7
		srv := server.New(server.Config{})
		if err := srv.AddQueue(server.QueueSpec{Name: "q", Algorithm: pq.SimpleTree, Priorities: 8}); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- srv.ListenAndServe("127.0.0.1:0") }()
		defer func() { srv.Close(); <-done }()
		for srv.Addr() == nil {
			time.Sleep(time.Millisecond)
		}
		c, err := Dial(Config{Addr: srv.Addr().String()})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for i := 0; i < items; i++ {
			v := make([]byte, 300<<10)
			v[0] = byte(i)
			if err := c.Insert(ctx, "q", i, v); err != nil {
				t.Fatal(err)
			}
		}
		var (
			mu    sync.Mutex
			got   = map[int]int{}
			empty int
		)
		err = callers(n, func(int) error {
			it, ok, err := c.DeleteMin(ctx, "q")
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err != nil:
				return err
			case !ok:
				empty++
			case int(it.Value[0]) != it.Pri || len(it.Value) != 300<<10:
				return fmt.Errorf("item %d arrived corrupt", it.Pri)
			default:
				got[it.Pri]++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < items; i++ {
			if got[i] != 1 {
				t.Fatalf("item %d delivered %d times, want once (%d callers read empty)", i, got[i], empty)
			}
		}
		if empty != n-items {
			t.Fatalf("%d callers read empty, want %d", empty, n-items)
		}
	})
}

// BC-6: a Client holds one connection. Concurrent callers share it,
// however many of them are outstanding, and a call that finds it dead
// redials it once for every caller behind it.
func TestBC6OneConnection(t *testing.T) {
	ctx := context.Background()

	t.Run("FewCallersShareOneConnection", func(t *testing.T) {
		// GIVEN 16 callers.
		addr, accepted := countingReplyServer(t, func(f wire.Frame) (wire.Frame, time.Duration) {
			return insertOK(f.ID, len(insertedItems(f)), 0), 0
		})
		c, err := Dial(Config{Addr: addr})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		// WHEN they insert concurrently.
		err = callers(16, func(i int) error {
			for r := 0; r < 50; r++ {
				if err := c.Insert(ctx, "q", r, nil); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		// THEN the peer saw one connection.
		if got := accepted.Load(); got != 1 {
			t.Fatalf("the peer accepted %d connections, want 1", got)
		}
	})

	t.Run("ManyOutstandingCallsShareOneConnection", func(t *testing.T) {
		// GIVEN a peer that holds every answer for a while, and twice as
		// many callers as one group holds.
		const n, hold = 2 * maxCoalesce, 200 * time.Millisecond
		var (
			mu   sync.Mutex
			seen = map[string]int{}
		)
		addr, accepted := countingReplyServer(t, func(f wire.Frame) (wire.Frame, time.Duration) {
			items := insertedItems(f)
			mu.Lock()
			for _, it := range items {
				seen[string(it.Value)]++
			}
			mu.Unlock()
			return insertOK(f.ID, len(items), 0), hold
		})
		c, err := Dial(Config{Addr: addr})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		// WHEN they all insert at once, so every call is outstanding
		// while the first answers are held.
		err = callers(n, func(i int) error {
			return c.Insert(ctx, "q", i, []byte(fmt.Sprint(i)))
		})
		if err != nil {
			t.Fatal(err)
		}
		// THEN the peer accepted exactly one connection, and every call
		// reached it exactly once.
		if got := accepted.Load(); got != 1 {
			t.Fatalf("the peer accepted %d connections, want 1", got)
		}
		mu.Lock()
		defer mu.Unlock()
		for i := 0; i < n; i++ {
			if got := seen[fmt.Sprint(i)]; got != 1 {
				t.Fatalf("call %d reached the peer %d times, want once", i, got)
			}
		}
	})

	t.Run("DeadConnectionIsRedialedOnce", func(t *testing.T) {
		// GIVEN a client whose connection has died.
		addr, accepted := countingReplyServer(t, func(f wire.Frame) (wire.Frame, time.Duration) {
			return insertOK(f.ID, len(insertedItems(f)), 0), 0
		})
		c, err := Dial(Config{Addr: addr})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		old := c.cn.Load()
		old.nc.Close()
		<-old.closed
		// WHEN the next calls come, concurrently.
		err = callers(8, func(i int) error {
			return c.Insert(ctx, "q", i, nil)
		})
		if err != nil {
			t.Fatal(err)
		}
		// THEN one of them redialed, once, and the rest used its
		// connection.
		if cn := c.cn.Load(); cn == old || cn == nil || cn.dead() {
			t.Fatal("the dead connection was not redialed")
		}
		if got := accepted.Load(); got != 2 {
			t.Fatalf("the peer accepted %d connections, want 2", got)
		}
	})
}

// silentPeer is a server that accepts connections and never reads
// from them, so a client's writes block once the socket fills.
func silentPeer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu   sync.Mutex
		held []net.Conn
	)
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, nc)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, nc := range held {
			nc.Close()
		}
		mu.Unlock()
	})
	return ln.Addr().String()
}

// closeWithin fails t unless c.Close returns within d.
func closeWithin(t *testing.T, c *Client, d time.Duration) {
	t.Helper()
	closed := make(chan struct{})
	go func() {
		c.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(d):
		t.Fatal("Close did not return")
	}
}

// TestTimeoutStuckWriter is the timeout contract for a peer that stops
// reading: once the socket fills, a round's write blocks, and neither
// it nor the calls queued behind it may outlive RequestTimeout. Every
// call returns an error within 4 × RequestTimeout, and Close returns.
func TestTimeoutStuckWriter(t *testing.T) {
	const timeout = 50 * time.Millisecond
	c, err := Dial(Config{Addr: silentPeer(t), RequestTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	value := make([]byte, 256<<10)
	result := make(chan error, 1)
	go func() {
		result <- callers(16, func(int) error {
			// Calls written before the socket fills expire unanswered; the
			// caller stops at its first call cut off by the stalled write.
			for end := time.Now().Add(10 * time.Second); time.Now().Before(end); {
				t0 := time.Now()
				err := c.Insert(context.Background(), "q", 1, value)
				if d := time.Since(t0); d > 4*timeout {
					return fmt.Errorf("Insert returned after %v (err %v), want within %v", d, err, 4*timeout)
				}
				switch {
				case errors.Is(err, errStalled):
					return nil
				case !errors.Is(err, context.DeadlineExceeded):
					return fmt.Errorf("Insert to a peer that never answers: got %v, want a deadline error", err)
				}
			}
			return errors.New("the socket never filled")
		})
	}()
	select {
	case err := <-result:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("calls still blocked 15s after a peer stopped reading")
	}
	closeWithin(t, c, time.Second)
}

// TestTimeoutContextBoundsLeader: with RequestTimeout disabled, a
// call's context is its only bound, and it must hold when the socket
// has filled and a round's write is blocked on a peer that never
// reads: no caller with a deadline is the one stuck in that write.
func TestTimeoutContextBoundsLeader(t *testing.T) {
	const bound = 50 * time.Millisecond
	c, err := Dial(Config{Addr: silentPeer(t), RequestTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	bounded := func(f func(ctx context.Context) error) error {
		ctx, cancel := context.WithTimeout(context.Background(), bound)
		defer cancel()
		t0 := time.Now()
		err := f(ctx)
		if d := time.Since(t0); d > 4*bound {
			return fmt.Errorf("call returned after %v (err %v), want within %v", d, err, 4*bound)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("call to a peer that never answers: got %v, want context.DeadlineExceeded", err)
		}
		return nil
	}
	value := make([]byte, 256<<10)
	result := make(chan error, 1)
	go func() {
		// 64 MiB of inserts, far more than the socket buffers hold.
		err := callers(16, func(int) error {
			for i := 0; i < 16; i++ {
				err := bounded(func(ctx context.Context) error { return c.Insert(ctx, "q", 1, value) })
				if err != nil {
					return err
				}
			}
			return nil
		})
		if err == nil {
			err = bounded(func(ctx context.Context) error {
				_, _, err := c.DeleteMin(ctx, "q")
				return err
			})
		}
		result <- err
	}()
	select {
	case err := <-result:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("calls with a 50ms context still blocked 15s after a peer stopped reading")
	}
	closeWithin(t, c, time.Second)
}

// TestTimeoutGroupsExpireNoneEarly: the sweeper expires a group whole,
// so calls bounded by RequestTimeout and calls bounded by their context
// never share one. In one round, the context-bound DeleteMins outlive
// the others' RequestTimeout and get their answer.
func TestTimeoutGroupsExpireNoneEarly(t *testing.T) {
	const timeout, delay = 50 * time.Millisecond, 200 * time.Millisecond
	addr := replyServer(t, func(f wire.Frame) (wire.Frame, time.Duration) {
		if f.Type == wire.TDeleteMinBatch {
			return itemsFrame(f.ID, nil), delay
		}
		return wire.Frame{Type: wire.TEmpty, ID: f.ID}, delay
	})
	c, err := Dial(Config{Addr: addr, RequestTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cn, err := c.conn()
	if err != nil {
		t.Fatal(err)
	}
	// Even calls carry RequestTimeout's due tick, odd ones a context's
	// (no due tick), the way do sets them.
	var calls [4]*call
	cn.mu.Lock()
	for i := range calls {
		calls[i] = newCall(wire.TDeleteMin, "q")
		if i%2 == 0 {
			calls[i].due = cn.tick.Load() + expiryTicks
		}
		cn.link(calls[i])
	}
	cn.mu.Unlock()
	cn.lead(nil)
	for i, cl := range calls {
		select {
		case <-cl.done:
		case <-time.After(5 * time.Second):
			t.Fatalf("call %d never finished", i)
		}
		if i%2 == 0 && !errors.Is(cl.err, context.DeadlineExceeded) {
			t.Fatalf("call %d under RequestTimeout: got %v, want context.DeadlineExceeded", i, cl.err)
		}
		if i%2 == 1 && (cl.err != nil || cl.resp.Type != wire.TEmpty) {
			t.Fatalf("context-bound call %d: got %s (%v), want its EMPTY answer after %v", i, cl.resp.Type, cl.err, delay)
		}
		cl.recycle()
	}
}

// TestTimeoutExpiresQueuedCalls: a call still on the pending list, behind
// a round that is slow but still moving, expires at its deadline as a
// written one does, and the calls around it stay queued in order.
func TestTimeoutExpiresQueuedCalls(t *testing.T) {
	c, err := Dial(Config{Addr: ackServer(t), RequestTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cn, err := c.conn()
	if err != nil {
		t.Fatal(err)
	}
	// The first link marks a round in flight, and nobody leads it yet:
	// the calls wait on the list as behind a long write.
	var calls [4]*call
	cn.mu.Lock()
	for i := range calls {
		calls[i] = newCall(wire.TDeleteMin, "q")
		calls[i].due = cn.tick.Load() + expiryTicks
		if i == 0 || i == 3 {
			calls[i].due = cn.tick.Load() + 1 // due at the next sweep
		}
		cn.link(calls[i])
	}
	cn.mu.Unlock()
	cn.sweep()
	for _, i := range []int{0, 3} {
		select {
		case <-calls[i].done:
			if !errors.Is(calls[i].err, context.DeadlineExceeded) {
				t.Fatalf("expired queued call %d: got %v, want context.DeadlineExceeded", i, calls[i].err)
			}
		default:
			t.Fatalf("queued call %d outlived its deadline", i)
		}
	}
	// A call linked after the sweep lands behind the survivors.
	last := newCall(wire.TDeleteMin, "q")
	cn.mu.Lock()
	cn.link(last)
	cn.mu.Unlock()
	cn.lead(nil)
	for i, cl := range []*call{calls[1], calls[2], last} {
		select {
		case <-cl.done:
		case <-time.After(5 * time.Second):
			t.Fatalf("queued call %d was lost", i)
		}
		if cl.err != nil || cl.resp.Type != wire.TEmpty {
			t.Fatalf("queued call %d: got %s (%v), want EMPTY", i, cl.resp.Type, cl.err)
		}
		cl.recycle()
	}
}

// frameCounter is a peer that answers like ackServer and counts the
// request frames it reads by type, with the items each carried (the
// members of an INSERT_BATCH, max of a DELETE_MIN_BATCH).
type frameCounter struct {
	mu     sync.Mutex
	frames map[wire.Type][]int
}

func newFrameCounter(t *testing.T) (*frameCounter, string) {
	fc := &frameCounter{frames: map[wire.Type][]int{}}
	addr := replyServer(t, func(f wire.Frame) (wire.Frame, time.Duration) {
		n := 1
		switch f.Type {
		case wire.TInsertBatch:
			n = len(insertedItems(f))
		case wire.TDeleteMinBatch:
			m, _ := wire.DecodeDeleteMinBatchView(f.Payload)
			n = int(m.Max)
		}
		fc.mu.Lock()
		fc.frames[f.Type] = append(fc.frames[f.Type], n)
		fc.mu.Unlock()
		switch f.Type {
		case wire.TInsert, wire.TInsertBatch:
			return insertOK(f.ID, n, 0), 0
		case wire.TDeleteMinBatch:
			return itemsFrame(f.ID, nil), 0
		}
		return wire.Frame{Type: wire.TEmpty, ID: f.ID}, 0
	})
	return fc, addr
}

func (fc *frameCounter) get(typ wire.Type) []int {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return slices.Clone(fc.frames[typ])
}

// leaderPass links calls onto cn's pending list and runs one leader pass
// over the list, as lead does between two flushes. The first link of an
// idle conn makes the test the round's leader.
func leaderPass(cn *conn, calls ...*call) {
	cn.mu.Lock()
	for _, cl := range calls {
		cn.link(cl)
	}
	list := cn.head
	cn.head, cn.tail = nil, nil
	cn.mu.Unlock()
	cn.writeRound(list)
}

// awaitCalls fails t unless every call is finished without error within
// a few seconds, and recycles them.
func awaitCalls(t *testing.T, calls []*call) {
	t.Helper()
	for i, cl := range calls {
		select {
		case <-cl.done:
		case <-time.After(5 * time.Second):
			t.Fatalf("call %d never finished", i)
		}
		if cl.err != nil {
			t.Fatalf("call %d: %v", i, cl.err)
		}
		cl.recycle()
	}
}

// registered reports whether cl heads a written group: one whose frame
// is in the writer and whose id the reader waits for.
func registered(cn *conn, cl *call) bool {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	for _, head := range cn.pend {
		if head == cl {
			return true
		}
	}
	return false
}

// BC-8: the leader writes one frame per kind and queue per flush. Calls
// linked across two leader passes before one flush leave as exactly one
// INSERT_BATCH and one DELETE_MIN_BATCH per queue. Under a list that
// keeps refilling a group is written no later than the end of its
// groupPasses-th pass, so a lone DeleteMin among a sustained stream of
// inserts is not held back.
func TestBC8OneFramePerKindPerFlush(t *testing.T) {
	t.Run("TwoPassesOneFlush", func(t *testing.T) {
		// GIVEN two queues, and two passes of two Inserts and two
		// DeleteMins to each, all before a flush.
		fc, addr := newFrameCounter(t)
		c, err := Dial(Config{Addr: addr})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		cn, err := c.conn()
		if err != nil {
			t.Fatal(err)
		}
		var calls []*call
		mk := func() []*call {
			var pass []*call
			for _, q := range []string{"a", "b"} {
				for range 2 {
					ins := newCall(wire.TInsert, q)
					ins.item = wire.Item{Pri: 1, Value: []byte(q)}
					pass = append(pass, ins, newCall(wire.TDeleteMin, q))
				}
			}
			calls = append(calls, pass...)
			return pass
		}
		leaderPass(cn, mk()...)
		leaderPass(cn, mk()...)
		// WHEN a third pass writes a STATS and the leader flushes.
		stats := newCall(wire.TStats, "a")
		calls = append(calls, stats)
		cn.mu.Lock()
		cn.link(stats)
		cn.mu.Unlock()
		cn.lead(nil)
		awaitCalls(t, calls)
		// THEN each queue got one INSERT_BATCH of four and one
		// DELETE_MIN_BATCH of four, and nothing went out singly.
		if got := fc.get(wire.TInsertBatch); !slices.Equal(got, []int{4, 4}) {
			t.Errorf("INSERT_BATCH frames carried %v items, want [4 4]: one per queue", got)
		}
		if got := fc.get(wire.TDeleteMinBatch); !slices.Equal(got, []int{4, 4}) {
			t.Errorf("DELETE_MIN_BATCH frames asked for %v items, want [4 4]: one per queue", got)
		}
		if n, m := len(fc.get(wire.TInsert)), len(fc.get(wire.TDeleteMin)); n+m != 0 {
			t.Errorf("%d INSERT and %d DELETE_MIN frames went out singly, want none", n, m)
		}
	})

	t.Run("LoneDeleteWrittenWithinBound", func(t *testing.T) {
		// GIVEN a pass that opens a group for one DeleteMin among
		// inserts, with no flush to come.
		fc, addr := newFrameCounter(t)
		c, err := Dial(Config{Addr: addr})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		cn, err := c.conn()
		if err != nil {
			t.Fatal(err)
		}
		var calls []*call
		inserts := func(n int) []*call {
			var pass []*call
			for range n {
				ins := newCall(wire.TInsert, "q")
				ins.item = wire.Item{Pri: 1}
				pass = append(pass, ins)
			}
			calls = append(calls, pass...)
			return pass
		}
		lone := newCall(wire.TDeleteMin, "q")
		calls = append(calls, lone)
		// WHEN the list keeps refilling with inserts alone.
		for pass := 1; pass <= groupPasses; pass++ {
			if pass == 1 {
				leaderPass(cn, append(inserts(3), lone)...)
			} else {
				leaderPass(cn, inserts(3)...)
			}
			// THEN the DeleteMin stays open for coalescing until the end
			// of its groupPasses-th pass, and is written then, before any
			// flush.
			if got, want := registered(cn, lone), pass == groupPasses; got != want {
				t.Fatalf("after pass %d: DeleteMin written = %v, want %v", pass, got, want)
			}
		}
		leaderPass(cn, inserts(3)...)
		cn.lead(nil)
		awaitCalls(t, calls)
		if got := fc.get(wire.TDeleteMin); !slices.Equal(got, []int{1}) {
			t.Errorf("DELETE_MIN frames: %v, want the one", got)
		}
	})
}

// TestTimeoutTicks pins the sweeper's tick arithmetic, calling sweep
// directly (RequestTimeout is an hour, so its timer never fires): a call
// RequestTimeout bounds expires on the fifth sweep after it was sent,
// never sooner, and a round in flight that makes no progress closes the
// conn on the fourth sweep that finds it so.
func TestTimeoutTicks(t *testing.T) {
	t.Run("CallExpiresOnFifthTick", func(t *testing.T) {
		// GIVEN a written call that the peer never answers, sent the way
		// do sends it.
		c, err := Dial(Config{Addr: silentPeer(t), RequestTimeout: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		cn, err := c.conn()
		if err != nil {
			t.Fatal(err)
		}
		cl := newCall(wire.TDeleteMin, "q")
		cl.due = cn.tick.Load() + expiryTicks
		cn.mu.Lock()
		cn.link(cl)
		cn.mu.Unlock()
		cn.lead(nil)
		// WHEN the sweeper ticks.
		for tick := 1; tick <= expiryTicks; tick++ {
			cn.sweep()
			select {
			case <-cl.done:
				// THEN it expired on the fifth tick and not before.
				if tick < expiryTicks {
					t.Fatalf("call expired on tick %d, want tick %d", tick, expiryTicks)
				}
				if !errors.Is(cl.err, context.DeadlineExceeded) {
					t.Fatalf("expired call: got %v, want context.DeadlineExceeded", cl.err)
				}
			default:
				if tick == expiryTicks {
					t.Fatalf("call still pending after tick %d", tick)
				}
			}
		}
		if cn.dead() {
			t.Fatal("an idle conn was closed as stalled")
		}
	})

	t.Run("StallAfterFourIdleSweeps", func(t *testing.T) {
		// GIVEN a round in flight that nobody leads, as behind a write
		// that blocked, and a queued call with no due tick.
		c, err := Dial(Config{Addr: silentPeer(t), RequestTimeout: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		cn, err := c.conn()
		if err != nil {
			t.Fatal(err)
		}
		cl := newCall(wire.TDeleteMin, "q")
		cn.mu.Lock()
		cn.link(cl)
		cn.mu.Unlock()
		// The first sweep finds the mark the new round made.
		cn.sweep()
		idle := func(n int) {
			t.Helper()
			for i := 1; i <= n; i++ {
				cn.sweep()
				if dead := cn.dead(); dead != (i == stallSweeps) {
					t.Fatalf("after %d sweeps without progress: closed = %v, want %v", i, dead, i == stallSweeps)
				}
			}
		}
		// WHEN three sweeps find no progress, then the round makes some.
		idle(stallSweeps - 1)
		cn.mu.Lock()
		cn.progress++
		cn.mu.Unlock()
		cn.sweep()
		// THEN only the fourth idle sweep after the one that found it
		// closes the conn, and the queued call fails as stalled.
		idle(stallSweeps)
		<-cl.done
		if !errors.Is(cl.err, errStalled) {
			t.Fatalf("queued call on a stalled conn: got %v, want %v", cl.err, errStalled)
		}
	})
}
