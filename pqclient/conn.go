package pqclient

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"pq/internal/wire"
)

// call is one logical request, in a record recycled through callPool.
// Its frame is encoded at write time from its fields; only an
// InsertBatch arrives with its payload pre-encoded. The conn finishes
// it exactly once by setting err (and, for a non-insert kind answered
// without error, resp) and sending on done.
type call struct {
	kind    wire.Type
	queue   string
	item    wire.Item // TInsert only
	max     uint32    // TDeleteMinBatch only
	payload []byte    // TInsertBatch only
	solo    bool      // never coalesce (set when resent after a batch TError)
	next    *call     // next member of a coalesced group, in wire order

	resp  wire.Frame
	err   error
	done  chan struct{} // 1-buffered; drained before the record is reused
	timer *time.Timer   // RequestTimeout, armed per use
}

var callPool = sync.Pool{New: func() any { return &call{done: make(chan struct{}, 1)} }}

func newCall(kind wire.Type, queue string) *call {
	cl := callPool.Get().(*call)
	cl.kind, cl.queue = kind, queue
	return cl
}

// recycle returns a record whose done signal, if any, has been received.
func (cl *call) recycle() {
	*cl = call{done: cl.done, timer: cl.timer}
	callPool.Put(cl)
}

func (cl *call) finish(resp wire.Frame, err error) {
	cl.resp, cl.err = resp, err
	cl.done <- struct{}{}
}

// finishGroup finishes every call linked from head. It reads next
// before finishing each one: a finished record may be recycled at once.
func finishGroup(head *call, err error) {
	for cl := head; cl != nil; {
		next := cl.next
		cl.finish(wire.Frame{}, err)
		cl = next
	}
}

// conn is one pooled connection: a writer goroutine that drains sendCh
// and a reader goroutine that matches response frames to pending
// requests by id.
//
// Flush rule: the writer coalesces adjacent same-queue inserts into one
// INSERT_BATCH and flushes only when the send queue is empty and stays
// empty across one runtime.Gosched. One response read wakes up to a
// whole pipeline of callers; the yield lets them resubmit, so their
// next requests share one write (and their inserts one frame) instead
// of each paying a syscall of its own.
//
// Ownership: the conn owns a call record from send until finish, and
// the caller owns it after receiving on done. A record abandoned on
// context or timeout is never recycled, because the conn may still
// finish it. So the writer encodes a frame before register publishes
// its calls in pend: from then on a concurrent close may finish them,
// and their callers recycle them, while the writer is still writing.
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
	pend    map[uint32]*call // group heads by request id
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
		pend:   make(map[uint32]*call),
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
		c.pend = map[uint32]*call{}
		c.mu.Unlock()
		close(c.closed)
		c.nc.Close()
		for _, head := range failed {
			finishGroup(head, err)
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

// send hands cl to writeLoop; expire, when not nil, bounds the wait like
// ctx does. When the conn is closed select picks at random among ready
// cases, so the send can land after close drained sendCh; a sender that
// then finds the conn dead drains it again.
func (c *conn) send(ctx context.Context, expire <-chan time.Time, cl *call) error {
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
	case <-expire:
		return context.DeadlineExceeded
	}
}

// register assigns a request id to a group of calls, or fails them with
// the close error once the conn is closed.
func (c *conn) register(head *call) (uint32, error) {
	c.mu.Lock()
	if err := c.err; err != nil {
		c.mu.Unlock()
		finishGroup(head, err)
		return 0, err
	}
	c.nextID++
	id := c.nextID
	c.pend[id] = head
	c.mu.Unlock()
	return id, nil
}

func (c *conn) take(id uint32) *call {
	c.mu.Lock()
	defer c.mu.Unlock()
	head := c.pend[id]
	delete(c.pend, id)
	return head
}

// writeLoop drains sendCh. A popped Insert greedily absorbs further
// queued Inserts to the same queue (up to MaxCoalesce) into one
// INSERT_BATCH frame; the buffered writer is flushed by the rule in the
// conn comment.
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
		n := 1
		if cl.kind == wire.TInsert && !cl.solo {
			// Bound the coalesced INSERT_BATCH by encoded payload bytes
			// as well as item count, so the merged frame never exceeds
			// what the server's ReadFrame accepts.
			bytes := 2 + len(cl.queue) + 4 + 8 + len(cl.item.Value)
		collect:
			for tail := cl; n < c.cfg.MaxCoalesce; n++ {
				select {
				case nx := <-c.sendCh:
					if nx.kind == wire.TInsert && !nx.solo && nx.queue == cl.queue &&
						bytes+8+len(nx.item.Value) <= wire.MaxPayload {
						tail.next, tail = nx, nx
						bytes += 8 + len(nx.item.Value)
					} else {
						holdover = nx
						break collect
					}
				default:
					break collect
				}
			}
		}
		werr := c.write(bw, cl, n)
		if werr == nil && holdover == nil && len(c.sendCh) == 0 {
			runtime.Gosched()
			if len(c.sendCh) == 0 {
				werr = bw.Flush()
			}
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

// write sends head, or the group of n coalesced inserts it starts, as
// one frame. The frame is encoded into the conn's reusable scratch
// before register publishes the calls (see the conn comment), and its
// request id patched in afterwards. An oversized frame is refused
// before a request id is burned on it.
func (c *conn) write(bw *bufio.Writer, head *call, n int) error {
	typ := head.kind
	if n > 1 {
		typ = wire.TInsertBatch
	}
	buf, off := wire.BeginFrame(c.enc[:0], typ, 0)
	switch {
	case n > 1:
		items := c.itemsScratch[:0]
		for cl := head; cl != nil; cl = cl.next {
			items = append(items, cl.item)
		}
		c.itemsScratch = items[:0]
		buf = wire.InsertBatch{Queue: head.queue, Items: items}.Append(buf)
	case typ == wire.TInsert:
		buf = wire.Insert{Queue: head.queue, Item: head.item}.Append(buf)
	case typ == wire.TInsertBatch:
		buf = append(buf, head.payload...)
	case typ == wire.TDeleteMinBatch:
		buf = wire.DeleteMinBatch{Queue: head.queue, Max: head.max}.Append(buf)
	default:
		buf = wire.QueueReq{Queue: head.queue}.Append(buf)
	}
	c.enc = wire.EndFrame(buf, off)
	if size := len(c.enc) - 12; size > wire.MaxPayload {
		finishGroup(head, oversizedErr(size))
		return nil
	}
	id, err := c.register(head)
	if err != nil {
		return err
	}
	binary.BigEndian.PutUint32(c.enc[8:12], id)
	_, err = bw.Write(c.enc)
	return err
}

// resendSolo re-enqueues the members of a group as solo calls, so they
// are sent as individual frames. Runs in its own goroutine: readLoop
// must never block on a full send queue (requests ahead of it could be
// waiting on responses this readLoop would deliver). solo calls are
// never re-coalesced, so a second TError resolves each call
// individually and the retry cannot loop.
func (c *conn) resendSolo(head *call) {
	go func() {
		for cl := head; cl != nil; {
			next := cl.next
			cl.next, cl.solo = nil, true
			if err := c.send(context.Background(), nil, cl); err != nil {
				cl.finish(wire.Frame{}, err)
			}
			cl = next
		}
	}()
}

// readLoop matches responses to pending calls. Payloads come from the
// wire buffer pool: deliver hands one to its caller only as the
// response to a non-insert call that succeeded, and every other
// payload is recycled here.
func (c *conn) readLoop() {
	br := bufio.NewReaderSize(c.nc, 64<<10)
	var fr wire.FrameReader
	for {
		f, err := fr.ReadFrame(br)
		if err != nil {
			c.close(err)
			return
		}
		head := c.take(f.ID)
		// head == nil: the response to an abandoned request.
		if head == nil || !c.deliver(head, f) {
			wire.PutBuf(f.Payload)
		}
	}
}

// deliver resolves a pending group from its response frame and reports
// whether it handed f's payload to the caller.
func (c *conn) deliver(head *call, f wire.Frame) bool {
	if head.next != nil && (f.Type == wire.TError || f.Type == wire.TWrongNode) {
		// The server rejects a whole INSERT_BATCH when any member is bad
		// (an out-of-range priority), and a cluster node NACKs it when
		// any member's priority belongs to another node. These calls
		// were coalesced from unrelated Inserts, so don't fate-share the
		// verdict: resend each member as its own frame and let the
		// server judge them individually.
		c.resendSolo(head)
		return false
	}
	err := respErr(f)
	if head.kind != wire.TInsert {
		if err == nil {
			head.finish(f, nil)
			return true
		}
		head.finish(wire.Frame{}, err)
		return false
	}
	// An insert group is one Insert, or a coalesced INSERT_BATCH of
	// which the server admitted an in-order prefix.
	var ok wire.InsertOK
	if err == nil && f.Type != wire.TInsertOK {
		err = &ServerError{Msg: "unexpected " + f.Type.String() + " response to insert"}
	}
	if err == nil {
		if ok, err = wire.DecodeInsertOK(f.Payload); err != nil {
			err = &ServerError{Msg: "bad INSERT_OK payload"}
		}
	}
	for i, cl := uint32(0), head; cl != nil; i++ {
		next := cl.next
		if err == nil && i >= ok.Accepted {
			err = &RetryError{After: time.Duration(ok.RetryAfterMillis) * time.Millisecond}
		}
		cl.finish(wire.Frame{}, err)
		cl = next
	}
	return false
}

// respErr is the error a TError, WRONG_NODE or RETRY_AFTER response
// carries, and nil for any other response.
func respErr(f wire.Frame) error {
	switch f.Type {
	case wire.TError:
		em, _ := wire.DecodeErrorMsg(f.Payload)
		return &ServerError{Msg: em.Msg}
	case wire.TWrongNode:
		wn, _ := wire.DecodeWrongNode(f.Payload)
		return &WrongNodeError{MapVersion: wn.MapVersion, Owner: wn.Owner}
	case wire.TRetryAfter:
		ra, _ := wire.DecodeRetryAfter(f.Payload)
		return &RetryError{After: time.Duration(ra.Millis) * time.Millisecond}
	}
	return nil
}
