package pqclient

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"pq/internal/wire"
)

// call is one logical request. Insert calls (kind TInsert) carry their
// item for coalescing; every other kind arrives with its payload
// pre-encoded. The conn closes done exactly once with err (and, for
// non-insert kinds, resp) set.
type call struct {
	kind    wire.Type
	queue   string
	item    wire.Item // TInsert only
	payload []byte    // every other kind
	solo    bool      // never coalesce (set when resent after a batch TError)

	resp wire.Frame
	err  error
	done chan struct{}
}

func (cl *call) finish(resp wire.Frame, err error) {
	cl.resp, cl.err = resp, err
	close(cl.done)
}

// pending is what one request id resolves: a single call, or the
// member calls of a coalesced INSERT_BATCH in wire order.
type pending struct {
	calls []*call
}

// conn is one pooled connection: a writer goroutine that drains sendCh
// (coalescing adjacent same-queue inserts and flushing only when the
// pipeline runs dry) and a reader goroutine that matches response
// frames to pending requests by id.
type conn struct {
	cfg Config
	nc  net.Conn

	sendCh chan *call

	// Encode scratch, touched only by the writeLoop goroutine: frames
	// are built in enc and written in one go, and coalesced batches
	// borrow itemsScratch, so the steady-state send path reuses the
	// same buffers instead of allocating per call.
	enc          []byte
	itemsScratch []wire.Item

	mu      sync.Mutex
	pend    map[uint32]pending
	nextID  uint32
	err     error
	closed  chan struct{}
	closeFn sync.Once
}

func dialConn(cfg Config) (*conn, error) {
	nc, err := net.DialTimeout("tcp", cfg.Addr, cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	c := &conn{
		cfg:    cfg,
		nc:     nc,
		sendCh: make(chan *call, 4*cfg.MaxCoalesce),
		pend:   make(map[uint32]pending),
		closed: make(chan struct{}),
	}
	go c.writeLoop()
	go c.readLoop()
	return c, nil
}

func (c *conn) dead() bool {
	select {
	case <-c.closed:
		return true
	default:
		return false
	}
}

func (c *conn) closeErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// close tears the connection down and fails everything in flight.
func (c *conn) close(err error) {
	c.closeFn.Do(func() {
		c.mu.Lock()
		if c.err == nil {
			c.err = err
		}
		failed := c.pend
		c.pend = map[uint32]pending{}
		c.mu.Unlock()
		close(c.closed)
		c.nc.Close()
		for _, p := range failed {
			for _, cl := range p.calls {
				cl.finish(wire.Frame{}, err)
			}
		}
		c.failQueued()
	})
}

// failQueued fails whatever is parked in the send queue with the close
// error. A call is received from sendCh exactly once — by writeLoop or
// by one of these drains — so each is finished exactly once.
func (c *conn) failQueued() {
	err := c.closeErr()
	for {
		select {
		case cl := <-c.sendCh:
			cl.finish(wire.Frame{}, err)
		default:
			return
		}
	}
}

// send hands cl to writeLoop. When the conn is closed select picks at
// random among ready cases, so the send can land after close drained
// sendCh; a sender that then finds the conn dead drains it again.
func (c *conn) send(ctx context.Context, cl *call) error {
	select {
	case c.sendCh <- cl:
		if c.dead() {
			c.failQueued()
		}
		return nil
	case <-c.closed:
		return c.closeErr()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// register assigns a request id to a group of calls, or fails them with
// the close error once the conn is closed.
func (c *conn) register(calls []*call) (uint32, error) {
	c.mu.Lock()
	if err := c.err; err != nil {
		c.mu.Unlock()
		for _, cl := range calls {
			cl.finish(wire.Frame{}, err)
		}
		return 0, err
	}
	c.nextID++
	id := c.nextID
	c.pend[id] = pending{calls: calls}
	c.mu.Unlock()
	return id, nil
}

func (c *conn) take(id uint32) (pending, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.pend[id]
	if ok {
		delete(c.pend, id)
	}
	return p, ok
}

// writeLoop drains sendCh. A popped Insert greedily absorbs further
// queued Inserts to the same queue (up to MaxCoalesce) into one
// INSERT_BATCH frame; the buffered writer is flushed only when the
// send queue runs dry, so pipelined callers share syscalls.
func (c *conn) writeLoop() {
	bw := bufio.NewWriterSize(c.nc, 64<<10)
	var holdover *call
	for {
		var cl *call
		if holdover != nil {
			cl, holdover = holdover, nil
		} else {
			select {
			case cl = <-c.sendCh:
			case <-c.closed:
				return
			}
		}
		var werr error
		if cl.kind == wire.TInsert && !cl.solo && c.cfg.MaxCoalesce > 1 {
			group := []*call{cl}
			// Bound the coalesced INSERT_BATCH by encoded payload bytes
			// as well as item count, so the merged frame never exceeds
			// what the server's ReadFrame accepts.
			bytes := 2 + len(cl.queue) + 4 + 8 + len(cl.item.Value)
		collect:
			for len(group) < c.cfg.MaxCoalesce {
				select {
				case nx := <-c.sendCh:
					if nx.kind == wire.TInsert && !nx.solo && nx.queue == cl.queue &&
						bytes+8+len(nx.item.Value) <= wire.MaxPayload {
						group = append(group, nx)
						bytes += 8 + len(nx.item.Value)
					} else {
						holdover = nx
						break collect
					}
				default:
					break collect
				}
			}
			werr = c.writeInserts(bw, group)
		} else if cl.kind == wire.TInsert {
			// Un-coalesced insert (solo resend or MaxCoalesce 1): its
			// payload is still the raw item, so it must be encoded here,
			// not written through the pre-encoded path.
			werr = c.writeInserts(bw, []*call{cl})
		} else {
			werr = c.writeOne(bw, cl)
		}
		if werr == nil && holdover == nil && len(c.sendCh) == 0 {
			werr = bw.Flush()
		}
		if werr != nil {
			c.close(werr)
			if holdover != nil {
				holdover.finish(wire.Frame{}, c.closeErr())
			}
			return
		}
	}
}

// oversizedErr rejects a request whose encoded payload the server's
// ReadFrame would refuse; failing it client-side keeps the connection
// (and every other pipelined request on it) alive.
func oversizedErr(n int) error {
	return fmt.Errorf("pqclient: request payload %d bytes exceeds the %d-byte frame limit", n, wire.MaxPayload)
}

// writeInserts sends a group of same-queue inserts as one frame,
// encoded into the conn's reusable scratch. The payload size is
// computed up front so an oversized group is refused before a request
// id is burned on it.
func (c *conn) writeInserts(bw *bufio.Writer, group []*call) error {
	var typ wire.Type
	var size int
	if len(group) == 1 {
		typ = wire.TInsert
		size = 2 + len(group[0].queue) + 8 + len(group[0].item.Value)
	} else {
		typ = wire.TInsertBatch
		size = 2 + len(group[0].queue) + 4
		for _, g := range group {
			size += 8 + len(g.item.Value)
		}
	}
	if size > wire.MaxPayload {
		err := oversizedErr(size)
		for _, g := range group {
			g.finish(wire.Frame{}, err)
		}
		return nil
	}
	id, err := c.register(group)
	if err != nil {
		return err
	}
	buf, off := wire.BeginFrame(c.enc[:0], typ, id)
	if typ == wire.TInsert {
		buf = wire.Insert{Queue: group[0].queue, Item: group[0].item}.Append(buf)
	} else {
		items := c.itemsScratch[:0]
		for _, g := range group {
			items = append(items, g.item)
		}
		c.itemsScratch = items[:0]
		buf = wire.InsertBatch{Queue: group[0].queue, Items: items}.Append(buf)
	}
	c.enc = wire.EndFrame(buf, off)
	_, err = bw.Write(c.enc)
	return err
}

func (c *conn) writeOne(bw *bufio.Writer, cl *call) error {
	if len(cl.payload) > wire.MaxPayload {
		cl.finish(wire.Frame{}, oversizedErr(len(cl.payload)))
		return nil
	}
	id, err := c.register([]*call{cl})
	if err != nil {
		return err
	}
	c.enc = wire.AppendFrameHeader(c.enc[:0], cl.kind, id, len(cl.payload))
	c.enc = append(c.enc, cl.payload...)
	_, err = bw.Write(c.enc)
	return err
}

// resendSolo re-enqueues calls marked solo so they are sent as
// individual frames. Runs in its own goroutine: readLoop must never
// block on a full send queue (requests ahead of it could be waiting on
// responses this readLoop would deliver). solo calls are never
// re-coalesced, so a second TError resolves each call individually and
// the retry cannot loop.
func (c *conn) resendSolo(calls []*call) {
	go func() {
		for _, cl := range calls {
			cl.solo = true
			if err := c.send(context.Background(), cl); err != nil {
				cl.finish(wire.Frame{}, err)
			}
		}
	}()
}

// readLoop matches responses to pending calls. Payloads come from the
// wire buffer pool; a response to an insert-only group is fully decoded
// inside deliver (Insert callers read only cl.err, never resp.Payload),
// so those payloads can be recycled here — the insert hot path reuses
// one pooled buffer per response instead of allocating each.
func (c *conn) readLoop() {
	br := bufio.NewReaderSize(c.nc, 64<<10)
	var fr wire.FrameReader
	for {
		f, err := fr.ReadFrame(br)
		if err != nil {
			c.close(err)
			return
		}
		p, ok := c.take(f.ID)
		if !ok {
			wire.PutBuf(f.Payload)
			continue // response to an abandoned request
		}
		insertOnly := true
		for _, cl := range p.calls {
			if cl.kind != wire.TInsert {
				insertOnly = false
				break
			}
		}
		c.deliver(p, f)
		if insertOnly {
			wire.PutBuf(f.Payload)
		}
	}
}

// deliver resolves a pending entry from its response frame.
func (c *conn) deliver(p pending, f wire.Frame) {
	// A group of >1 calls is a coalesced INSERT_BATCH: the server
	// admitted an in-order prefix.
	if len(p.calls) > 1 || (len(p.calls) == 1 && p.calls[0].kind == wire.TInsert) {
		switch f.Type {
		case wire.TInsertOK:
			ok, err := wire.DecodeInsertOK(f.Payload)
			if err != nil {
				for _, cl := range p.calls {
					cl.finish(wire.Frame{}, &ServerError{Msg: "bad INSERT_OK payload"})
				}
				return
			}
			retry := &RetryError{After: time.Duration(ok.RetryAfterMillis) * time.Millisecond}
			for i, cl := range p.calls {
				if uint32(i) < ok.Accepted {
					cl.finish(f, nil)
				} else {
					cl.finish(f, retry)
				}
			}
		case wire.TRetryAfter:
			ra, _ := wire.DecodeRetryAfter(f.Payload)
			retry := &RetryError{After: time.Duration(ra.Millis) * time.Millisecond}
			for _, cl := range p.calls {
				cl.finish(f, retry)
			}
		case wire.TError:
			if len(p.calls) > 1 {
				// The server rejects a whole INSERT_BATCH when any
				// member is bad (e.g. one caller's out-of-range
				// priority). These calls were coalesced from unrelated
				// Inserts, so don't fate-share the error: resend each
				// member as its own un-coalesced frame and let the
				// server judge them individually.
				c.resendSolo(p.calls)
				return
			}
			em, _ := wire.DecodeErrorMsg(f.Payload)
			for _, cl := range p.calls {
				cl.finish(f, &ServerError{Msg: em.Msg})
			}
		case wire.TWrongNode:
			if len(p.calls) > 1 {
				// A cluster node NACKs a whole INSERT_BATCH when any
				// member's priority belongs to another node. Coalesced
				// members may have different owners, so exactly like the
				// TError arm: resend each solo and let the server judge
				// them individually — the truly misrouted ones come back
				// as individual WrongNodeErrors for their callers.
				c.resendSolo(p.calls)
				return
			}
			wn, _ := wire.DecodeWrongNode(f.Payload)
			for _, cl := range p.calls {
				cl.finish(f, &WrongNodeError{MapVersion: wn.MapVersion, Owner: wn.Owner})
			}
		default:
			for _, cl := range p.calls {
				cl.finish(f, &ServerError{Msg: "unexpected " + f.Type.String() + " response to insert"})
			}
		}
		return
	}

	cl := p.calls[0]
	switch f.Type {
	case wire.TError:
		em, _ := wire.DecodeErrorMsg(f.Payload)
		cl.finish(f, &ServerError{Msg: em.Msg})
	case wire.TWrongNode:
		wn, _ := wire.DecodeWrongNode(f.Payload)
		cl.finish(f, &WrongNodeError{MapVersion: wn.MapVersion, Owner: wn.Owner})
	case wire.TRetryAfter:
		ra, _ := wire.DecodeRetryAfter(f.Payload)
		cl.finish(f, &RetryError{After: time.Duration(ra.Millis) * time.Millisecond})
	default:
		cl.finish(f, nil)
	}
}
