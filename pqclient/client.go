// Package pqclient is the client library for pqd, the priority-queue
// daemon (see internal/server and cmd/pqd).
//
// A Client holds one TCP connection, redialed by the next call once it
// dies, and pqd serves each connection on one goroutine, so one Client
// is one sequential stream at the server: a caller who wants the
// server to run its queue on more goroutines opens more Clients. The
// Client pipelines requests on its connection, written in rounds led
// by the callers themselves, as a combining funnel gathers concurrent
// operations at one point: the caller that finds no round in flight
// takes every call queued on the connection and writes them,
// concurrent Inserts to one queue as one INSERT_BATCH and concurrent
// DeleteMins to one queue as one DELETE_MIN_BATCH, whose items go one
// per caller, each caller getting a copy of its value. A caller whose
// context can end starts a goroutine to lead instead, so a blocked
// write never outlives its context. The leader flushes once per round
// of callers: when the queue runs dry it yields once, so the callers
// just woken by a response batch can queue their next requests into
// the same write. It keeps its groups open until that flush, so each
// flush carries one frame per kind and queue; a group is written
// sooner only when it is full (32 members, or the frame limit), or,
// when the queue keeps refilling, after four passes of the leader over
// it. Timeouts are counted in ticks of a per-connection sweeper that
// runs every quarter of Config.RequestTimeout, so no call reads the
// clock. Calls allocate nothing in steady state (DeleteMin allocates
// only the value it returns): call records are pooled, and a record
// abandoned on its context is never reused, because its connection may
// still finish it.
// Admission-control sheds (RETRY_AFTER) are retried with jittered
// backoff up to Config.MaxRetries before surfacing as ErrOverload;
// retries only ever happen on an explicit reject from the server, so a
// retried insert can never be applied twice.
package pqclient

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"pq/internal/wire"
)

// Config tunes a Client. The zero value of every field selects a sane
// default.
type Config struct {
	// Addr is the pqd host:port. Required.
	Addr string
	// DialTimeout bounds connection establishment. Default 5s.
	DialTimeout time.Duration
	// RequestTimeout applies to requests whose context carries no
	// deadline, and closes a connection whose write has made no
	// progress for that long. It is counted in sweeps a quarter of it
	// apart, so a call expires between RequestTimeout and 1.25 times
	// it. Default 5s; negative disables.
	RequestTimeout time.Duration
	// MaxRetries is how many times an Insert shed with RETRY_AFTER is
	// retried before ErrOverload. Default 8; negative disables retry.
	MaxRetries int
	// RetryBase is the backoff used when the server sends no hint.
	// Default 2ms. Each attempt sleeps the hint (or base) plus up to
	// 100% random jitter.
	RetryBase time.Duration

	// Conns is ignored: a Client holds one connection.
	//
	// Deprecated: kept only because bench/ still sets it; goes when
	// bench/ next opens (ROADMAP item 1(b)).
	Conns int
}

func (c *Config) normalize() error {
	if c.Addr == "" {
		return errors.New("pqclient: Config.Addr is required")
	}
	if c.DialTimeout == 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 8
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 2 * time.Millisecond
	}
	return nil
}

// Item is one (priority, value) pair.
type Item struct {
	Pri   int
	Value []byte
}

// QueueStats mirrors the server's per-queue counters.
type QueueStats = wire.QueueStats

// ErrOverload reports that an insert was shed by admission control and
// every retry was shed too. Callers should back off and try later.
var ErrOverload = errors.New("pqclient: overloaded")

// ErrClosed reports use of a closed client.
var ErrClosed = errors.New("pqclient: closed")

// ServerError is a TError response from the server (unknown queue,
// out-of-range priority, malformed frame...).
type ServerError struct {
	Msg string
}

func (e *ServerError) Error() string { return "pqclient: server: " + e.Msg }

// RetryError is one RETRY_AFTER shed; Insert handles these internally
// and only surfaces ErrOverload, but InsertBatch exposes the partial
// accept so callers see it for the rejected tail.
type RetryError struct {
	After time.Duration
}

func (e *RetryError) Error() string {
	return fmt.Sprintf("pqclient: shed by admission control (retry after %v)", e.After)
}

// WrongNodeError is a WRONG_NODE NACK from a cluster node: the insert's
// priority is owned by another node under the server's cluster map
// (version MapVersion). Owner is that node's address. Nothing was
// admitted. A plain Client surfaces it as-is; the ClusterClient
// refreshes its map and re-routes.
type WrongNodeError struct {
	MapVersion uint64
	Owner      string
}

func (e *WrongNodeError) Error() string {
	return fmt.Sprintf("pqclient: wrong node: priority owned by %q (cluster map version %d)", e.Owner, e.MapVersion)
}

// Client is a pipelining pqd client over one connection. All methods
// are safe for concurrent use.
type Client struct {
	cfg Config

	// cn is the connection calls go to, nil once the client is closed.
	// After Dial it is stored only under mu: by the call that redials
	// it and by Close.
	cn atomic.Pointer[conn]
	mu sync.Mutex
}

// Dial validates cfg and connects, so a bad address fails fast.
func Dial(cfg Config) (*Client, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	cn, err := dialConn(cfg)
	if err != nil {
		return nil, err
	}
	c := &Client{cfg: cfg}
	c.cn.Store(cn)
	return c, nil
}

// Close severs the connection; in-flight requests fail.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cn := c.cn.Swap(nil); cn != nil {
		cn.close(ErrClosed)
	}
	return nil
}

// conn returns the live connection, with one atomic load in the common
// case. A call that finds it dead redials it under mu, where the calls
// behind it find the new one, so one death costs one dial.
func (c *Client) conn() (*conn, error) {
	if cn := c.cn.Load(); cn != nil && !cn.dead() {
		return cn, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch cn := c.cn.Load(); {
	case cn == nil:
		return nil, ErrClosed
	case !cn.dead():
		return cn, nil
	}
	cn, err := dialConn(c.cfg)
	if err != nil {
		return nil, err
	}
	c.cn.Store(cn)
	return cn, nil
}

// do sends one call, waits for its resolution and recycles cl. On
// success resp is the caller's: return its payload with wire.PutBuf
// once decoded. A DeleteMin answered with an item gets it as it, its
// value the caller's own, and resp.Type TItem with no payload.
// RequestTimeout becomes the record's due tick, which the conn's
// sweeper enforces as context.DeadlineExceeded, as a context deadline
// would.
func (c *Client) do(ctx context.Context, cl *call) (resp wire.Frame, it wire.Item, err error) {
	if len(cl.queue) > wire.MaxName {
		err = fmt.Errorf("pqclient: queue name of %d bytes exceeds the %d-byte limit", len(cl.queue), wire.MaxName)
		cl.recycle()
		return resp, it, err
	}
	cn, err := c.conn()
	if err != nil {
		cl.recycle()
		return resp, it, err
	}
	if _, has := ctx.Deadline(); !has && c.cfg.RequestTimeout > 0 {
		cl.due = cn.tick.Load() + expiryTicks
	}
	// A caller whose context can end never leads on its own goroutine
	// (see conn): a stalled write must not outlive its context.
	done := ctx.Done()
	cn.enqueue(cl, done != nil)
	if done == nil {
		<-cl.done
	} else {
		select {
		case <-cl.done:
		case <-done:
			// An abandoned record stays with the conn, which finishes it
			// when the response arrives; nobody is listening by then.
			return resp, it, ctx.Err()
		}
	}
	resp, it, err = cl.resp, cl.item, cl.err
	cl.recycle()
	return resp, it, err
}

// checkPri refuses a priority the wire's uint32 cannot carry.
func checkPri(pri int) error {
	if pri < 0 || uint64(pri) > math.MaxUint32 {
		return fmt.Errorf("pqclient: priority %d outside [0, 2^32)", pri)
	}
	return nil
}

func (c *Client) sleepRetry(ctx context.Context, re *RetryError) error {
	d := re.After
	if d <= 0 {
		d = c.cfg.RetryBase
	}
	d += time.Duration(rand.Int63n(int64(d) + 1)) // full jitter on top
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Insert adds value at priority pri, retrying jittered when shed.
// After MaxRetries sheds it returns ErrOverload (wrapped with the last
// retry hint).
func (c *Client) Insert(ctx context.Context, queue string, pri int, value []byte) error {
	if err := checkPri(pri); err != nil {
		return err
	}
	if len(value) > wire.MaxValue {
		return fmt.Errorf("pqclient: value %d bytes exceeds the %d-byte limit", len(value), wire.MaxValue)
	}
	for attempt := 0; ; attempt++ {
		cl := newCall(wire.TInsert, queue)
		cl.item = wire.Item{Pri: uint32(pri), Value: value}
		_, _, err := c.do(ctx, cl)
		if err == nil {
			return nil
		}
		// Declared only now: errors.As makes re escape to the heap.
		var re *RetryError
		if !errors.As(err, &re) {
			return err
		}
		if attempt >= c.cfg.MaxRetries {
			return fmt.Errorf("%w after %d attempts: %v", ErrOverload, attempt+1, re)
		}
		if err := c.sleepRetry(ctx, re); err != nil {
			return err
		}
	}
}

// InsertBatch adds items in one frame and returns how many the server
// admitted (an in-order prefix). A short count comes with a *RetryError
// for the rejected tail; InsertBatch does not retry internally.
func (c *Client) InsertBatch(ctx context.Context, queue string, items []Item) (accepted int, err error) {
	if len(items) == 0 {
		return 0, nil
	}
	m := wire.InsertBatch{Queue: queue, Items: make([]wire.Item, len(items))}
	size := 2 + len(queue) + 4 // queue prefix + item count
	for i, it := range items {
		if err := checkPri(it.Pri); err != nil {
			return 0, err
		}
		if len(it.Value) > wire.MaxValue {
			return 0, fmt.Errorf("pqclient: item %d: value %d bytes exceeds the %d-byte limit", i, len(it.Value), wire.MaxValue)
		}
		size += 8 + len(it.Value)
		m.Items[i] = wire.Item{Pri: uint32(it.Pri), Value: it.Value}
	}
	if size > wire.MaxPayload {
		return 0, fmt.Errorf("pqclient: batch encodes to %d bytes, exceeding the %d-byte frame limit; split the batch", size, wire.MaxPayload)
	}
	cl := newCall(wire.TInsertBatch, queue)
	cl.payload = m.Append(nil)
	f, _, err := c.do(ctx, cl)
	if err != nil {
		return 0, err
	}
	ok, err := wire.DecodeInsertOK(f.Payload)
	wire.PutBuf(f.Payload)
	if err != nil {
		return 0, fmt.Errorf("pqclient: bad INSERT_OK: %w", err)
	}
	if ok.Rejected > 0 {
		return int(ok.Accepted), &RetryError{After: time.Duration(ok.RetryAfterMillis) * time.Millisecond}
	}
	return int(ok.Accepted), nil
}

// DeleteMin removes and returns the most urgent item, or ok=false if
// the queue appeared empty.
func (c *Client) DeleteMin(ctx context.Context, queue string) (it Item, ok bool, err error) {
	f, w, err := c.do(ctx, newCall(wire.TDeleteMin, queue))
	switch {
	case err != nil:
		return Item{}, false, err
	case f.Type == wire.TItem:
		return Item{Pri: int(w.Pri), Value: w.Value}, true, nil
	case f.Type == wire.TEmpty:
		return Item{}, false, nil
	}
	wire.PutBuf(f.Payload)
	return Item{}, false, &ServerError{Msg: "unexpected " + f.Type.String() + " response to DELETE_MIN"}
}

// DeleteMinBatch removes up to max items in one round trip. Only an
// empty result means the queue appeared empty: a short non-empty one
// may be the server cutting the batch at its frame's byte budget, so
// ask again for the rest.
func (c *Client) DeleteMinBatch(ctx context.Context, queue string, max int) ([]Item, error) {
	if max < 1 {
		return nil, fmt.Errorf("pqclient: DeleteMinBatch max must be >= 1, got %d", max)
	}
	if max > wire.MaxBatchItems {
		max = wire.MaxBatchItems
	}
	cl := newCall(wire.TDeleteMinBatch, queue)
	cl.max = uint32(max)
	f, _, err := c.do(ctx, cl)
	if err != nil {
		return nil, err
	}
	// The items' values alias the payload, so it is not recycled.
	m, err := wire.DecodeItems(f.Payload)
	if err != nil {
		return nil, fmt.Errorf("pqclient: bad ITEMS: %w", err)
	}
	out := make([]Item, len(m.Items))
	for i, w := range m.Items {
		out[i] = Item{Pri: int(w.Pri), Value: w.Value}
	}
	return out, nil
}

// Stats fetches the server's counters for one queue.
func (c *Client) Stats(ctx context.Context, queue string) (QueueStats, error) {
	f, _, err := c.do(ctx, newCall(wire.TStats, queue))
	if err != nil {
		return QueueStats{}, err
	}
	var st QueueStats
	err = json.Unmarshal(f.Payload, &st)
	wire.PutBuf(f.Payload)
	if err != nil {
		return QueueStats{}, fmt.Errorf("pqclient: bad STATS_REPLY: %w", err)
	}
	return st, nil
}

// Drain tells the server to stop admitting inserts to the queue and
// returns how many items remained to be deleted when draining began.
func (c *Client) Drain(ctx context.Context, queue string) (remaining uint64, err error) {
	f, _, err := c.do(ctx, newCall(wire.TDrain, queue))
	if err != nil {
		return 0, err
	}
	m, err := wire.DecodeDrained(f.Payload)
	wire.PutBuf(f.Payload)
	if err != nil {
		return 0, fmt.Errorf("pqclient: bad DRAINED: %w", err)
	}
	return m.Remaining, nil
}
