package pqclient

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pq/internal/wire"
)

// call is one logical request, in a record recycled through callPool.
// Its frame is encoded at write time from its fields; only an
// InsertBatch arrives with its payload pre-encoded. The conn finishes
// it exactly once by setting err (and, for a non-insert kind answered
// without error, resp) and sending on done. A DeleteMin answered with
// an item gets resp.Type TItem and the item itself in item, its value
// the caller's own copy.
type call struct {
	kind    wire.Type
	queue   string
	item    wire.Item // TInsert's operand; a DeleteMin's answer
	max     uint32    // TDeleteMinBatch only
	payload []byte    // TInsertBatch only
	solo    bool      // never coalesce (set when resent after a batch TError)
	due     uint64    // the sweep tick RequestTimeout expires it on; zero when ctx bounds the call
	next    *call     // next call on the pending list, then next member of its group in wire order

	resp wire.Frame
	err  error
	done chan struct{} // 1-buffered; drained before the record is reused
}

var callPool = sync.Pool{New: func() any { return &call{done: make(chan struct{}, 1)} }}

func newCall(kind wire.Type, queue string) *call {
	cl := callPool.Get().(*call)
	cl.kind, cl.queue = kind, queue
	return cl
}

// recycle returns a record whose done signal, if any, has been received.
func (cl *call) recycle() {
	*cl = call{done: cl.done}
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

// group is one open group: coalesced calls of one kind to one queue,
// linked from head in wire order, gathered since the leader's pass
// number pass.
type group struct {
	head, tail *call
	n, bytes   int // members, and the INSERT_BATCH payload they encode to
	pass       int
}

// groupPasses bounds how long a group stays open under a pending list
// that keeps refilling, so that no flush comes: a group opened in pass p
// is written by the end of pass p+groupPasses-1. Frames reach the socket
// only at a flush or when the 64 KiB writer fills, so writing a group
// sooner would not send it sooner; the bound only keeps a group that
// never fills (a lone DeleteMin among inserts) from waiting forever.
// Under serve_pipelined's load (32 callers on one connection, 2.5 passes
// per flush) a bound of 2 passes wrote 60 % of all frames early, 2.4
// frames per flush, and this one under 3 %, 2.0 frames per flush.
const groupPasses = 4

// maxCoalesce caps a group: how many concurrent Inserts to one queue
// merge into one INSERT_BATCH, and how many DeleteMins into one
// DELETE_MIN_BATCH. Coalescing off (a cap of 1) measured slower.
const maxCoalesce = 32

// The sweeper runs every RequestTimeout/sweepsPerTimeout while work is
// pending, and each run is one tick. A call expires expiryTicks ticks
// after the tick it was sent on, so between RequestTimeout and
// 1.25 × RequestTimeout after it began; the conn closes as stalled when
// stallSweeps runs in a row find a round in flight and no progress.
const (
	sweepsPerTimeout = 4
	expiryTicks      = sweepsPerTimeout + 1
	stallSweeps      = sweepsPerTimeout
)

// conn is a Client's connection, written by leader/follower rounds and
// read by a reader goroutine that matches response frames to pending
// requests by id.
//
// Rounds: a caller links its call onto the pending list, and if no
// round is in flight it leads one, as a combining funnel's carrier
// does: it takes the whole list, writes the calls that never coalesce,
// and sorts the Inserts and the DeleteMins into one open group per kind
// and queue (see writeRound). It repeats while the list has refilled,
// and flushes only when the list stays empty across one
// runtime.Gosched: one response read wakes up to a whole pipeline of
// callers, and the yield lets them link their next requests into the
// same write instead of each paying a syscall of its own. The open
// groups are written just before the flush, so each flush carries one
// INSERT_BATCH and one DELETE_MIN_BATCH per queue. A group is written
// sooner only when it fills (maxCoalesce members or wire.MaxPayload
// bytes) or, under a list that keeps refilling, after groupPasses
// passes. Followers just wait for their answer. Once the leader's own
// call is answered it writes its open groups and hands a refilled list
// to a goroutine instead of leading on; no leader steps down with a
// group open. Only a caller whose context cannot end leads on its own
// goroutine: a write may block on a peer that stopped reading, and a
// call bounded by its context must still return when the context ends,
// so such a caller starts a leader goroutine and waits for its answer
// or its context. readLoop never writes either: what it puts back on
// the list (a short delete group's tail, a rejected batch's members)
// starts a leader goroutine when no round is in flight.
//
// Timeouts are counted in sweeper ticks, so no call reads the clock:
// one sweeper timer, re-armed every RequestTimeout/4 while work is
// pending, advances the tick, finishes the written groups whose calls
// are all past their due tick and the expired calls still on the list,
// and closes the conn when four sweeps in a row find a round in flight
// that has made no progress (taken no list, written no frame, flushed
// nothing). Calls in open groups are neither, so the sweeper does not
// see them; groupPasses is what bounds them. The sweeper stands in for
// a per-round SetWriteDeadline: it is needed for the expiries anyway, it
// costs the write path a counter bump instead of a poller timer update
// per round, and it tells a slow write from a stalled one.
//
// Ownership: the conn owns a call record from send until finish, and
// the caller owns it after receiving on done. A record abandoned on a
// context is never recycled, because the conn may still finish it. So
// the leader encodes a frame before register publishes its calls in
// pend: from then on the reader, the sweeper or close may finish them,
// and their callers recycle them, while the leader is still writing.
type conn struct {
	cfg Config
	nc  net.Conn

	// Owned by the round's leader: the buffered writer, the encode
	// scratch (frames are built in enc, coalesced inserts borrow items),
	// the open groups and the pass count that ages them, so a round
	// allocates nothing.
	bw     *bufio.Writer
	enc    []byte
	items  []wire.Item
	groups []group
	pass   int

	tick       atomic.Uint64 // sweeps so far: the clock RequestTimeout is counted in
	mu         sync.Mutex
	head, tail *call  // pending list: calls no round has taken yet
	busy       bool   // a round is in flight
	progress   uint64 // round starts, list takes, frames and flushes: the stall check's mark
	seen       uint64 // progress as the last sweep found it
	idle       int    // sweeps in a row that found a round in flight and no progress
	sweeper    *time.Timer
	armed      bool
	pend       map[uint32]*call // written group heads by request id
	nextID     uint32
	err        error
	closed     chan struct{}
	closeFn    sync.Once
}

func dialConn(cfg Config) (*conn, error) {
	nc, err := net.DialTimeout("tcp", cfg.Addr, cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	c := &conn{
		cfg:    cfg,
		nc:     nc,
		bw:     bufio.NewWriterSize(nc, 64<<10),
		pend:   make(map[uint32]*call),
		closed: make(chan struct{}),
	}
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

// close tears the connection down and fails everything in flight.
func (c *conn) close(err error) {
	c.closeFn.Do(func() {
		c.mu.Lock()
		c.err = err
		failed, queued := c.pend, c.head
		c.pend, c.head, c.tail = map[uint32]*call{}, nil, nil
		if c.sweeper != nil {
			c.sweeper.Stop()
		}
		c.mu.Unlock()
		close(c.closed)
		c.nc.Close()
		for _, head := range failed {
			finishGroup(head, err)
		}
		finishGroup(queued, err)
	})
}

// enqueue links the calls linked from list onto the pending list, or
// finishes them with the close error once the conn is closed. When no
// round is in flight, the caller leads one on its own goroutine, or,
// with async, a new goroutine does (see the conn comment).
func (c *conn) enqueue(list *call, async bool) {
	c.mu.Lock()
	if err := c.err; err != nil {
		c.mu.Unlock()
		finishGroup(list, err)
		return
	}
	lead := c.link(list)
	c.mu.Unlock()
	switch {
	case !lead:
	case async:
		go c.lead(nil)
	default:
		c.lead(list)
	}
}

// link appends the calls linked from list to the pending list, arms the
// sweeper, and reports whether the caller must now lead: it found no
// round in flight and marked one. Called with mu held.
func (c *conn) link(list *call) (lead bool) {
	if c.tail == nil {
		c.head = list
	} else {
		c.tail.next = list
	}
	for c.tail = list; c.tail.next != nil; c.tail = c.tail.next {
	}
	if t := c.cfg.RequestTimeout; t > 0 && !c.armed {
		c.armed = true
		if c.sweeper == nil {
			c.sweeper = time.AfterFunc(t/sweepsPerTimeout, c.sweep)
		} else {
			c.sweeper.Reset(t / sweepsPerTimeout)
		}
	}
	if lead, c.busy = !c.busy, true; lead {
		// An old mark would read as a stall before the leader starts.
		c.progress++
	}
	return lead
}

// lead runs rounds until the pending list stays empty, by the flush
// rule in the conn comment, then steps down. own is the leader's own
// call, or nil on a leader goroutine: once own is answered, a refilled
// list goes to a new leader goroutine. Called by whoever link told to
// lead, without mu.
func (c *conn) lead(own *call) {
	// A handed-off round may have left frames in bw, so a new leader
	// flushes before it steps down.
	wrote := true
	c.mu.Lock()
	for {
		if list := c.head; list != nil {
			if own != nil && len(own.done) > 0 {
				c.mu.Unlock()
				c.writeGroups(c.pass + 1)
				go c.lead(nil)
				return
			}
			c.head, c.tail = nil, nil
			c.progress++
			c.mu.Unlock()
			c.writeRound(list)
			wrote = true
		} else if !wrote {
			c.busy = false
			c.mu.Unlock()
			return
		} else {
			c.mu.Unlock()
			runtime.Gosched()
			c.mu.Lock()
			if c.head != nil {
				continue
			}
			c.progress++
			c.mu.Unlock()
			c.writeGroups(c.pass + 1)
			if err := c.bw.Flush(); err != nil {
				c.close(err)
			}
			wrote = false
		}
		c.mu.Lock()
	}
}

// sweep is the RequestTimeout sweeper; each run is one tick. It closes
// the conn when stallSweeps runs in a row find a round in flight that
// has made no progress, since a peer that stopped reading must not hold
// the calls queued behind it. Otherwise it finishes every written group
// whose calls are all due with context.DeadlineExceeded; the answer, if
// it ever comes, finds no pending id. Due calls still on the pending
// list go too, so a slow round ahead of them cannot hold them past their
// bound.
func (c *conn) sweep() {
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return
	}
	tick := c.tick.Add(1)
	if c.busy && c.progress == c.seen {
		if c.idle++; c.idle >= stallSweeps {
			c.mu.Unlock()
			c.close(errStalled)
			return
		}
	} else {
		c.idle, c.seen = 0, c.progress
	}
	// finish never blocks (done has room for the one signal), so the
	// expired groups are finished under mu.
	for id, head := range c.pend {
		if groupExpired(head, tick) {
			delete(c.pend, id)
			finishGroup(head, context.DeadlineExceeded)
		}
	}
	var prev *call
	for cl := c.head; cl != nil; {
		next := cl.next
		if !cl.expired(tick) {
			prev = cl
		} else {
			if prev == nil {
				c.head = next
			} else {
				prev.next = next
			}
			if cl == c.tail {
				c.tail = prev
			}
			cl.next = nil
			cl.finish(wire.Frame{}, context.DeadlineExceeded)
		}
		cl = next
	}
	if c.armed = c.busy || len(c.pend) > 0; c.armed {
		c.sweeper.Reset(c.cfg.RequestTimeout / sweepsPerTimeout)
	}
	c.mu.Unlock()
}

// expired reports whether cl has a due tick, and tick has reached it.
func (cl *call) expired(tick uint64) bool {
	return cl.due != 0 && tick >= cl.due
}

// groupExpired reports whether every call of the group from head has
// expired: no call expires before its own bound.
func groupExpired(head *call, tick uint64) bool {
	for cl := head; cl != nil; cl = cl.next {
		if !cl.expired(tick) {
			return false
		}
	}
	return true
}

// errStalled closes a conn whose write made no progress for a whole
// RequestTimeout: stallSweeps sweeps.
var errStalled = fmt.Errorf("pqclient: connection write stalled for a whole request timeout: %w", context.DeadlineExceeded)

// register assigns a request id to a group of calls about to be
// written, or fails them with the close error once the conn is closed.
// The leader calls it between frames, so it also marks the write's
// progress for the stall check.
func (c *conn) register(head *call) (uint32, bool) {
	c.mu.Lock()
	if err := c.err; err != nil {
		c.mu.Unlock()
		finishGroup(head, err)
		return 0, false
	}
	c.progress++
	c.nextID++
	id := c.nextID
	c.pend[id] = head
	c.mu.Unlock()
	return id, true
}

func (c *conn) take(id uint32) *call {
	c.mu.Lock()
	defer c.mu.Unlock()
	head := c.pend[id]
	delete(c.pend, id)
	return head
}

// writeRound takes one pass over calls from the pending list. Inserts
// and DeleteMins not marked solo join the open group for their kind and
// queue; every other call is written as its own frame. Groups that have
// been open for groupPasses passes are then written; the rest wait for
// the flush. The calls of one round are concurrent, so their order on
// the wire is free.
func (c *conn) writeRound(list *call) {
	c.pass++
	for cl := list; cl != nil; {
		next := cl.next
		cl.next = nil
		if !cl.solo && (cl.kind == wire.TInsert || cl.kind == wire.TDeleteMin) {
			c.join(cl)
		} else {
			c.write(cl, 1)
		}
		cl = next
	}
	c.writeGroups(c.pass - groupPasses + 2)
}

// writeGroups writes every open group opened before pass before, and
// keeps the rest open in the order they opened; before = c.pass+1 writes
// them all.
func (c *conn) writeGroups(before int) {
	open := c.groups[:0]
	for _, g := range c.groups {
		if g.pass < before {
			c.write(g.head, g.n)
		} else {
			open = append(open, g)
		}
	}
	clear(c.groups[len(open):])
	c.groups = open
}

// join adds cl to the open group for its kind and queue, writing that
// group first when cl would overflow it. Calls bounded by RequestTimeout
// and calls bounded by their context group apart, so that the sweeper
// can expire a group whole without expiring anyone before their own
// bound.
func (c *conn) join(cl *call) {
	size := 0
	if cl.kind == wire.TInsert {
		size = 8 + len(cl.item.Value)
	}
	fresh := group{cl, cl, 1, 2 + len(cl.queue) + 4 + size, c.pass}
	for i := range c.groups {
		g := &c.groups[i]
		if g.head.kind != cl.kind || g.head.queue != cl.queue || (g.head.due == 0) != (cl.due == 0) {
			continue
		}
		if g.n == maxCoalesce || g.bytes+size > wire.MaxPayload {
			c.write(g.head, g.n)
			*g = fresh
			return
		}
		g.tail.next, g.tail = cl, cl
		g.n++
		g.bytes += size
		return
	}
	c.groups = append(c.groups, fresh)
}

// oversizedErr rejects a request whose encoded payload the server's
// ReadFrame would refuse; failing it client-side keeps the connection
// (and every other pipelined request on it) alive.
func oversizedErr(n int) error {
	return fmt.Errorf("pqclient: request payload %d bytes exceeds the %d-byte frame limit", n, wire.MaxPayload)
}

// write sends head, or the group of n calls it starts, as one frame:
// n coalesced Inserts as an INSERT_BATCH, n DeleteMins as one
// DELETE_MIN_BATCH with max = n. The frame is encoded into the conn's
// reusable scratch before register publishes the calls (see the conn
// comment), and its request id patched in afterwards. An oversized
// frame is refused before a request id is burned on it. A write error
// closes the conn, and the rest of the round then fails in register.
func (c *conn) write(head *call, n int) {
	typ, max := head.kind, head.max
	if n > 1 {
		typ, max = wire.TDeleteMinBatch, uint32(n)
		if head.kind == wire.TInsert {
			typ = wire.TInsertBatch
		}
	}
	buf, off := wire.BeginFrame(c.enc[:0], typ, 0)
	switch {
	case n > 1 && typ == wire.TInsertBatch:
		items := c.items[:0]
		for cl := head; cl != nil; cl = cl.next {
			items = append(items, cl.item)
		}
		c.items = items[:0]
		buf = wire.InsertBatch{Queue: head.queue, Items: items}.Append(buf)
	case typ == wire.TInsert:
		buf = wire.Insert{Queue: head.queue, Item: head.item}.Append(buf)
	case typ == wire.TInsertBatch:
		buf = append(buf, head.payload...)
	case typ == wire.TDeleteMinBatch:
		buf = wire.DeleteMinBatch{Queue: head.queue, Max: max}.Append(buf)
	default:
		buf = wire.QueueReq{Queue: head.queue}.Append(buf)
	}
	c.enc = wire.EndFrame(buf, off)
	if size := len(c.enc) - 12; size > wire.MaxPayload {
		finishGroup(head, oversizedErr(size))
		return
	}
	id, ok := c.register(head)
	if !ok {
		return
	}
	binary.BigEndian.PutUint32(c.enc[8:12], id)
	if _, err := c.bw.Write(c.enc); err != nil {
		c.close(err)
	}
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
		// head == nil: the response to an abandoned or expired request.
		if head == nil || !c.deliver(head, f) {
			wire.PutBuf(f.Payload)
		}
	}
}

// deliver resolves a pending group from its response frame and reports
// whether it handed f's payload to the caller.
func (c *conn) deliver(head *call, f wire.Frame) bool {
	if head.next != nil {
		switch {
		case f.Type == wire.TError || f.Type == wire.TWrongNode:
			// The server rejects a whole batch when any part of it is bad
			// (an out-of-range priority), and a cluster node NACKs an
			// INSERT_BATCH when any member's priority belongs to another
			// node. These calls were coalesced from unrelated ones, so
			// don't fate-share the verdict: resend each member as its own
			// frame and let the server judge them individually. solo calls
			// are never re-coalesced, so the retry cannot loop.
			for cl := head; cl != nil; cl = cl.next {
				cl.solo = true
			}
			c.enqueue(head, true)
			return false
		case head.kind == wire.TDeleteMin && f.Type == wire.TItems:
			c.deliverItems(head, f.Payload)
			return false
		}
	} else if head.kind == wire.TDeleteMin && f.Type == wire.TItem {
		finishItem(head, f.Payload)
		return false
	}
	err := respErr(f)
	if head.kind != wire.TInsert {
		if err == nil && head.next == nil {
			head.finish(f, nil)
			return true
		}
		if err == nil {
			err = &ServerError{Msg: "unexpected " + f.Type.String() + " response to DELETE_MIN_BATCH"}
		}
		finishGroup(head, err)
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

// deliverItems resolves a delete group from its ITEMS answer. The i-th
// item goes to the i-th member in wire order, as the answer to its
// DELETE_MIN (an ITEMS element is encoded as a TItem payload). An empty
// answer resolves every member EMPTY: the server always keeps a batch's
// first pop, so no byte budget cut it and the queue was empty. A short
// non-empty answer may be such a cut, so the unserved members go back
// on the list, still coalescable; each retry serves one or ends EMPTY.
func (c *conn) deliverItems(head *call, p []byte) {
	v, err := wire.DecodeItemsView(p)
	cl := head
	for err == nil && v.Len > 0 && cl != nil {
		var elem []byte
		if elem, err = v.Next(); err == nil {
			next := cl.next
			finishItem(cl, elem)
			cl = next
		}
	}
	switch {
	case err != nil || v.Len > 0:
		finishGroup(cl, &ServerError{Msg: "bad ITEMS payload"})
	case cl == head:
		for cl != nil {
			next := cl.next
			cl.finish(wire.Frame{Type: wire.TEmpty}, nil)
			cl = next
		}
	case cl != nil:
		c.enqueue(cl, true)
	}
}

// finishItem resolves a DeleteMin from its answer p, a TItem payload:
// the caller gets the item with a copy of the value of its own, the one
// allocation DeleteMin makes.
func finishItem(cl *call, p []byte) {
	it, err := wire.DecodeItem(p)
	if err != nil {
		cl.finish(wire.Frame{}, fmt.Errorf("pqclient: bad ITEM: %w", err))
		return
	}
	cl.item = wire.Item{Pri: it.Pri, Value: bytes.Clone(it.Value)}
	cl.finish(wire.Frame{Type: wire.TItem}, nil)
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
