// Package server hosts the native priority queues behind a TCP
// endpoint speaking the wire protocol (see internal/wire): a registry
// of named queues, each backed by any pq.Algorithm with optional
// priority-range sharding, admission control by one CAS-reserved word
// per bounded queue (shedding with RETRY_AFTER instead of queueing
// unboundedly, exact in flight), one goroutine per connection that reads,
// handles and micro-batches response flushes in one loop, and graceful
// drain.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pq"
	"pq/internal/obs"
	"pq/internal/wal"
	"pq/internal/wire"
)

// Config tunes a Server.
type Config struct {
	// RetryAfterMillis is the backoff hint sent with shed requests.
	// Default 2.
	RetryAfterMillis int
	// Concurrency sizes the funnel layers of the backing queues;
	// default GOMAXPROCS.
	Concurrency int
	// Logger receives structured serving diagnostics (connection ids,
	// queue names, WAL recovery and poison events, slow-op warnings).
	// nil discards them.
	Logger *slog.Logger
	// SlowOp logs any queue mutation that took longer than this at
	// Warn level and counts it in pq_queue_slow_ops_total. 0 disables
	// slow-op logging.
	SlowOp time.Duration
	// AllowRelaxed permits queues backed by relaxed algorithms
	// (pq.MultiQueue): delete-min may return an item while strictly
	// better items remain queued. Off by default so a client that
	// expects exact priority order can never be handed a relaxed queue
	// by a configuration slip; pqd exposes it as -relaxed.
	AllowRelaxed bool

	// DataDir, when set, makes every queue durable: each keeps a
	// segmented write-ahead log plus snapshots under DataDir/<name>,
	// inserts are logged before they are acknowledged, pops log the
	// exact items delivered, and AddQueue replays snapshot + log tail
	// so a restart reconstructs the queue. Empty disables durability.
	DataDir string
	// Fsync is the log's sync policy (see wal.SyncPolicy); the zero
	// value is wal.SyncAlways, group-committed.
	Fsync wal.SyncPolicy
	// FsyncInterval is the wal.SyncInterval flush period. Default 10ms.
	FsyncInterval time.Duration
	// SnapshotEvery starts a background fold of the log into a snapshot
	// each time it grows by that many records. Default 100000; negative
	// disables them (graceful shutdown still folds a final one).
	SnapshotEvery int
}

func (c *Config) normalize() {
	if c.RetryAfterMillis <= 0 {
		c.RetryAfterMillis = 2
	}
	if c.Concurrency <= 0 {
		c.Concurrency = runtime.GOMAXPROCS(0)
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 100000
	}
}

// Server is a pqd serving instance.
type Server struct {
	cfg Config

	mu     sync.RWMutex
	queues map[string]*servedQueue

	lnMu     sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	connsWG  sync.WaitGroup
	shutdown atomic.Bool

	// met aggregates protocol-level series. nextConnID numbers
	// connections for log correlation and doubles as the metric stripe
	// hint.
	met        *serverMetrics
	nextConnID atomic.Uint64

	// cluster, when set (SetClusterMap), makes this server one node of
	// a multi-node deployment: inserts outside its owned priority
	// ranges are NACKed with TWrongNode and the map is served in STATS.
	cluster atomic.Pointer[clusterState]
}

// New builds a server with no queues; add them with AddQueue before
// serving.
func New(cfg Config) *Server {
	cfg.normalize()
	return &Server{
		cfg:    cfg,
		queues: make(map[string]*servedQueue),
		conns:  make(map[net.Conn]struct{}),
		met:    newServerMetrics(cfg.Concurrency),
	}
}

// AddQueue registers a queue. It may be called while serving; the name
// must be unused. With Config.DataDir set, the queue's write-ahead log
// under DataDir/<name> is opened (or created) and its snapshot + log
// tail are replayed into the fresh queue before it serves traffic.
func (s *Server) AddQueue(spec QueueSpec) error {
	if s.cfg.DataDir != "" {
		if strings.ContainsAny(spec.Name, "/\\") || spec.Name == "." || spec.Name == ".." {
			return fmt.Errorf("server: durable queue name %q must be a plain directory name", spec.Name)
		}
	}
	if cl := s.cluster.Load(); cl != nil && spec.Priorities != cl.m.Priorities {
		return fmt.Errorf("server: queue %q spans %d priorities but the cluster map covers %d; every queue on a cluster node must span the map's full priority space",
			spec.Name, spec.Priorities, cl.m.Priorities)
	}
	if pq.IsRelaxed(spec.Algorithm) && !s.cfg.AllowRelaxed {
		return fmt.Errorf("server: queue %q: algorithm %q relaxes delete-min ordering (better items may remain queued when an item is delivered); set Config.AllowRelaxed (pqd -relaxed) to serve it",
			spec.Name, spec.Algorithm)
	}
	q, err := newServedQueue(spec, s.cfg.Concurrency)
	if err != nil {
		return err
	}
	if s.cfg.DataDir != "" {
		// One stripe: wal rounds never overlap, so one recorder at a time.
		q.walMet = &obs.WALMetrics{
			FsyncNanos:    obs.NewHistogram(1, obs.LatencyMinShift, obs.LatencyMaxShift),
			CommitRecords: obs.NewHistogram(1, 0, 20),
		}
		l, rec, err := wal.Open(wal.Options{
			Dir:      filepath.Join(s.cfg.DataDir, spec.Name),
			Policy:   s.cfg.Fsync,
			Interval: s.cfg.FsyncInterval,
			Logger:   s.cfg.Logger,
			Metrics:  q.walMet,
		})
		if err != nil {
			return fmt.Errorf("server: queue %q: %w", spec.Name, err)
		}
		if err := q.attachWAL(l, rec, s.cfg.SnapshotEvery); err != nil {
			l.Close()
			return err
		}
		s.cfg.Logger.Info("queue recovered",
			"queue", spec.Name, "items", len(rec.Items), "snapshot_lsn", rec.SnapshotLSN,
			"replayed_records", rec.Replayed, "torn_tail", rec.Torn)
		if over := q.admitted.Load() - spec.Capacity; spec.Capacity > 0 && over > 0 {
			s.cfg.Logger.Warn("recovered items exceed capacity; admission stays closed until occupancy drops below the bound",
				"queue", spec.Name, "over", over, "capacity", spec.Capacity)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.queues[q.spec.Name]; dup {
		if q.wal != nil {
			q.wal.Close()
		}
		return fmt.Errorf("server: queue %q already registered", q.spec.Name)
	}
	s.queues[q.spec.Name] = q
	return nil
}

func (s *Server) lookup(name string) *servedQueue {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.queues[name]
}

// lookupB is lookup for a queue name still aliasing the request frame.
// The conversion sits inside the index expression so the compiler's
// map-lookup-by-[]byte optimization elides the string allocation.
func (s *Server) lookupB(name []byte) *servedQueue {
	s.mu.RLock()
	q := s.queues[string(name)]
	s.mu.RUnlock()
	return q
}

// QueueStats snapshots one queue's counters (for tests and the
// daemon's exit report).
func (s *Server) QueueStats(name string) (wire.QueueStats, bool) {
	q := s.lookup(name)
	if q == nil {
		return wire.QueueStats{}, false
	}
	st := q.stats()
	st.Cluster = s.clusterStats()
	return st, true
}

// ListenAndServe listens on addr and serves until Shutdown or Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// ErrServerClosed is returned by Serve after Shutdown or Close.
var ErrServerClosed = errors.New("server: closed")

// Serve accepts connections on ln until Shutdown or Close.
func (s *Server) Serve(ln net.Listener) error {
	s.lnMu.Lock()
	s.ln = ln
	s.lnMu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			if s.shutdown.Load() {
				return ErrServerClosed
			}
			return err
		}
		s.lnMu.Lock()
		if s.shutdown.Load() {
			s.lnMu.Unlock()
			c.Close()
			return ErrServerClosed
		}
		s.conns[c] = struct{}{}
		s.connsWG.Add(1)
		s.lnMu.Unlock()
		go s.serveConn(c)
	}
}

// Addr reports the listening address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.lnMu.Lock()
	defer s.lnMu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Shutdown drains gracefully: stop accepting, mark every queue
// draining (inserts shed with RETRY_AFTER, delete-mins keep working so
// clients can empty the queues), then wait until every connection has
// closed or ctx expires, at which point remaining connections are
// severed. Queues with a WAL attached then take a final snapshot and
// seal their segments, so the next boot replays zero log records.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutdown.Store(true)
	s.lnMu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	s.lnMu.Unlock()

	s.mu.RLock()
	for _, q := range s.queues {
		q.draining.Store(true)
	}
	s.mu.RUnlock()

	done := make(chan struct{})
	go func() {
		s.connsWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.closeConns()
		<-done
		err = ctx.Err()
	}
	if serr := s.sealWALs(); serr != nil && err == nil {
		err = serr
	}
	return err
}

// Close severs everything immediately. WAL files are closed (appends
// already acknowledged are on disk) but no final snapshot is taken —
// the next boot replays the log tail, exactly as after a crash.
func (s *Server) Close() error {
	s.shutdown.Store(true)
	s.lnMu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	s.lnMu.Unlock()
	s.closeConns()
	s.connsWG.Wait()
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, q := range s.queues {
		if q.wal != nil {
			q.wal.Close()
		}
	}
	return nil
}

// sealWALs snapshots and closes every durable queue's log.
func (s *Server) sealWALs() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var err error
	for _, q := range s.queues {
		if serr := q.sealWAL(); serr != nil && err == nil {
			err = fmt.Errorf("server: queue %q: seal: %w", q.spec.Name, serr)
		}
	}
	return err
}

func (s *Server) closeConns() {
	s.lnMu.Lock()
	defer s.lnMu.Unlock()
	for c := range s.conns {
		c.Close()
	}
}

func (s *Server) dropConn(c net.Conn) {
	c.Close()
	s.lnMu.Lock()
	delete(s.conns, c)
	s.lnMu.Unlock()
	s.connsWG.Done()
}

// connState carries one connection's identity through the request
// path: the id correlates log lines and picks metric stripes.
type connState struct {
	id   uint64
	log  *slog.Logger
	gate map[*wal.Log]uint64 // the connection's countingWriter's
}

// countingReader / countingWriter tap a connection's byte streams into
// the protocol byte counters without touching buffering behaviour.
type countingReader struct {
	r    io.Reader
	n    *obs.Counter
	hint uint64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	if n > 0 {
		cr.n.Add(cr.hint, int64(n))
	}
	return n, err
}

type countingWriter struct {
	w      io.Writer
	n      *obs.Counter
	writes *obs.Counter // pq_response_flushes_total
	hint   uint64
	gate   map[*wal.Log]uint64 // per log, the last LSN staged and not yet waited for
}

// Write forwards one response write — a bufio flush, or a value too big
// to buffer written straight through — and counts it and its bytes. It
// is the one place response bytes leave, so it first waits for the
// records the gate holds: one WAL round per micro-batch of responses. A
// failed round fails the write, and the connection closes unanswered.
func (cw *countingWriter) Write(p []byte) (int, error) {
	for l, lsn := range cw.gate {
		if err := l.Wait(lsn); err != nil {
			return 0, err
		}
	}
	clear(cw.gate)
	n, err := cw.w.Write(p)
	if n > 0 {
		cw.n.Add(cw.hint, int64(n))
	}
	cw.writes.Inc(cw.hint)
	return n, err
}

// maxFlushBatch caps the pipelined requests handled between response
// flushes on one connection, so a client that keeps the read buffer
// full still sees its responses in bounded batches.
const maxFlushBatch = 64

// serveConn runs one connection on one goroutine: read a frame, handle
// it, recycle its payload, and flush the response writer when the read
// buffer does not already hold the whole next frame or maxFlushBatch
// requests have been handled since the last flush — the server-side
// micro-batch, which the respWriter sends as one write per 64 KiB.
// The flush test peeks the next frame's length prefix rather than
// asking whether any byte is buffered: a client may send a request
// plus part of the next and wait for the first response before sending
// the rest, and reading that partial frame without flushing would
// deadlock both ends.
//
// Buffer ownership along the path: the FrameReader hands each request
// a pooled payload buffer, recycled right after handle() returns
// (everything a request retains — an inserted item — was copied into a
// queue envelope by then, and everything a response references is
// queue envelopes, never the request payload).
func (s *Server) serveConn(c net.Conn) {
	defer s.dropConn(c)

	cs := connState{id: s.nextConnID.Add(1)}
	cs.log = s.cfg.Logger.With("conn", cs.id, "remote", c.RemoteAddr().String())
	s.met.connsAccepted.Add(1)
	s.met.connsActive.Add(1)
	defer s.met.connsActive.Add(-1)

	br := getConnReader(&countingReader{r: c, n: s.met.bytesRead, hint: cs.id})
	defer putConnReader(br)
	cs.gate = make(map[*wal.Log]uint64)
	w := getRespWriter(&countingWriter{w: c, n: s.met.bytesWritten, writes: s.met.flushes, hint: cs.id, gate: cs.gate})
	defer w.release()
	var (
		fr wire.FrameReader
		n  int // requests handled since the last flush
	)
	for {
		f, perr := fr.ReadFrame(br)
		if perr != nil && !errors.Is(perr, wire.ErrBadVersion) && !errors.Is(perr, wire.ErrBadFlags) {
			if !errors.Is(perr, net.ErrClosed) && !isEOF(perr) {
				cs.log.Warn("read failed", "err", perr)
			}
			w.Flush() // answers to requests ahead of a malformed frame still go out
			return
		}
		s.met.framesRead.Inc(cs.id)
		if perr != nil {
			s.met.resyncs.Inc(cs.id)
		}
		err := s.handle(f, perr, w, cs)
		wire.PutBuf(f.Payload)
		if err != nil {
			cs.log.Warn("write failed", "err", err)
			return
		}
		if n++; n < maxFlushBatch && nextFrameBuffered(br) {
			continue
		}
		if err := w.Flush(); err != nil {
			return
		}
		s.met.framesWritten.Add(cs.id, int64(n))
		s.met.pipelineDepth.Observe(cs.id, int64(n))
		n = 0
	}
}

func isEOF(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// reply appends one response frame with a pre-built payload to the
// connection's response writer — the cold-path helper (errors, stats
// JSON). Hot paths append their payloads straight into the writer's
// free buffer via beginFrame/endFrame instead.
func reply(w *respWriter, id uint32, t wire.Type, payload []byte) error {
	buf, off := w.beginFrame(t, id)
	buf = append(buf, payload...)
	return w.endFrame(buf, off)
}

func (s *Server) replyErr(w *respWriter, id uint32, format string, args ...any) error {
	return reply(w, id, wire.TError, wire.ErrorMsg{Msg: fmt.Sprintf(format, args...)}.Append(nil))
}

func (s *Server) replyRetry(w *respWriter, id uint32) error {
	buf, off := w.beginFrame(wire.TRetryAfter, id)
	buf = wire.RetryAfter{Millis: uint32(s.cfg.RetryAfterMillis)}.Append(buf)
	return w.endFrame(buf, off)
}

// opDone finishes one timed queue operation: count it, record the
// latency, and log it when it crossed the slow-op threshold.
func (s *Server) opDone(q *servedQueue, op qOp, t0 time.Time, cs connState) {
	m := q.met
	m.ops[op].Inc(cs.id)
	if m.lat[op] == nil {
		return // counted but not timed (stats, drain)
	}
	d := time.Since(t0)
	m.lat[op].Observe(cs.id, d.Nanoseconds())
	if s.cfg.SlowOp > 0 && d >= s.cfg.SlowOp {
		m.slowOps.Add(1)
		cs.log.Warn("slow op", "queue", q.spec.Name, "op", qOpNames[op], "duration", d)
	}
}

// durFailed notes a mutation refused with a durability error — the
// signal that the queue's WAL is poisoned and ops stopped serving.
func (q *servedQueue) durFailed(cs connState, op string, err error) {
	q.durErrors.Add(1)
	cs.log.Error("durability failure", "queue", q.spec.Name, "op", op, "err", err)
}

// handle processes one request frame and writes its single response.
// protoErr carries a recoverable per-frame protocol error (bad version
// / bad flags): the frame was consumed from the stream and is answered
// with TError instead of dispatched. Request decoding uses the
// zero-copy views — queue names and item values alias f.Payload — so
// everything a request hands the queue is copied into a pooled
// envelope before handle returns, and the caller recycles the payload
// right after.
func (s *Server) handle(f wire.Frame, protoErr error, w *respWriter, cs connState) error {
	if protoErr != nil {
		return s.replyErr(w, f.ID, "%v (frame version %d, flags ignored until version matches)", protoErr, f.Version)
	}
	switch f.Type {
	case wire.TInsert:
		m, err := wire.DecodeInsertView(f.Payload)
		if err != nil {
			return s.replyErr(w, f.ID, "bad INSERT: %v", err)
		}
		one := [1]wire.Item{m.Item}
		return s.handleInsert(w, f.ID, cs, opInsert, m.Queue, one[:])

	case wire.TInsertBatch:
		m, err := wire.DecodeInsertBatchView(f.Payload, w.items)
		if err == nil {
			err = s.handleInsert(w, f.ID, cs, opInsertBatch, m.Queue, m.Items)
		} else {
			err = s.replyErr(w, f.ID, "bad INSERT_BATCH: %v", err)
		}
		// The items alias f.Payload, which the caller recycles next.
		clear(m.Items)
		w.items = m.Items[:0]
		return err

	case wire.TDeleteMin:
		m, err := wire.DecodeQueueReqView(f.Payload)
		if err != nil {
			return s.replyErr(w, f.ID, "bad DELETE_MIN: %v", err)
		}
		return s.handlePop(w, f.ID, cs, opDeleteMin, m.Queue, 1)

	case wire.TDeleteMinBatch:
		m, err := wire.DecodeDeleteMinBatchView(f.Payload)
		if err != nil {
			return s.replyErr(w, f.ID, "bad DELETE_MIN_BATCH: %v", err)
		}
		return s.handlePop(w, f.ID, cs, opDeleteMinBatch, m.Queue, int(m.Max))

	case wire.TStats:
		m, err := wire.DecodeQueueReqView(f.Payload)
		if err != nil {
			return s.replyErr(w, f.ID, "bad STATS: %v", err)
		}
		q := s.lookupB(m.Queue)
		if q == nil {
			return s.replyErr(w, f.ID, "no such queue %q", m.Queue)
		}
		s.opDone(q, opStats, time.Time{}, cs)
		st := q.stats()
		st.Cluster = s.clusterStats()
		data, err := json.Marshal(st)
		if err != nil {
			return s.replyErr(w, f.ID, "stats: %v", err)
		}
		return reply(w, f.ID, wire.TStatsReply, data)

	case wire.TDrain:
		m, err := wire.DecodeQueueReqView(f.Payload)
		if err != nil {
			return s.replyErr(w, f.ID, "bad DRAIN: %v", err)
		}
		q := s.lookupB(m.Queue)
		if q == nil {
			return s.replyErr(w, f.ID, "no such queue %q", m.Queue)
		}
		s.opDone(q, opDrain, time.Time{}, cs)
		cs.log.Info("queue draining", "queue", q.spec.Name)
		q.draining.Store(true)
		rem := q.size()
		if rem < 0 {
			rem = 0
		}
		buf, off := w.beginFrame(wire.TDrained, f.ID)
		buf = wire.Drained{Remaining: uint64(rem)}.Append(buf)
		return w.endFrame(buf, off)

	default:
		return s.replyErr(w, f.ID, "unknown request type %s", f.Type)
	}
}

// handleInsert serves INSERT (op opInsert, one item) and INSERT_BATCH:
// the frames differ only in how the reply is worded. All of a request
// is validated before any of it is admitted, so a request is either a
// protocol error or an admitted prefix. A batch error names the
// offending index: a client that coalesced unrelated inserts can tell
// whose item was bad. A misrouted member NACKs the whole request
// un-admitted rather than admitting a prefix, because every member needs
// re-routing by a client whose map is demonstrably stale.
func (s *Server) handleInsert(w *respWriter, id uint32, cs connState, op qOp, name []byte, items []wire.Item) error {
	q := s.lookupB(name)
	if q == nil {
		return s.replyErr(w, id, "no such queue %q", name)
	}
	cl := s.cluster.Load()
	for i, it := range items {
		var bad string
		switch {
		case int(it.Pri) >= q.spec.Priorities:
			bad = fmt.Sprintf("priority %d out of range [0,%d)", it.Pri, q.spec.Priorities)
		case len(it.Value) > wire.MaxValue:
			bad = fmt.Sprintf("value %d bytes exceeds limit %d", len(it.Value), wire.MaxValue)
		case cl != nil && !cl.owns(int(it.Pri)):
			return s.replyWrongNode(w, id, cl, int(it.Pri))
		default:
			continue
		}
		if op == opInsertBatch {
			bad = fmt.Sprintf("item %d: %s", i, bad)
		}
		return s.replyErr(w, id, "%s", bad)
	}
	t0 := time.Now()
	accepted, lsn, err := q.insertN(items)
	s.opDone(q, op, t0, cs)
	if lsn != 0 {
		cs.gate[q.wal] = lsn
	}
	if err != nil {
		q.durFailed(cs, qOpNames[op], err)
		return s.replyErr(w, id, "durability: %v", err)
	}
	if op == opInsert && accepted == 0 {
		return s.replyRetry(w, id)
	}
	ok := wire.InsertOK{Accepted: uint32(accepted), Rejected: uint32(len(items) - accepted)}
	if ok.Rejected > 0 {
		ok.RetryAfterMillis = uint32(s.cfg.RetryAfterMillis)
	}
	buf, off := w.beginFrame(wire.TInsertOK, id)
	buf = ok.Append(buf)
	return w.endFrame(buf, off)
}

// handlePop serves DELETE_MIN (op opDeleteMin, max 1, answered with
// ITEM or EMPTY) and DELETE_MIN_BATCH (answered with ITEMS). The pop is
// bounded by encoded response bytes as well as max, so the reply always
// fits under wire.MaxFrame; a short response just means the client
// should ask again.
func (s *Server) handlePop(w *respWriter, id uint32, cs connState, op qOp, name []byte, max int) error {
	q := s.lookupB(name)
	if q == nil {
		return s.replyErr(w, id, "no such queue %q", name)
	}
	if max <= 0 || max > wire.MaxBatchItems {
		return s.replyErr(w, id, "bad DELETE_MIN_BATCH max %d", max)
	}
	t0 := time.Now()
	envs, lsn, err := q.popN(max, wire.MaxPayload, w.envs[:0])
	s.opDone(q, op, t0, cs)
	if lsn != 0 {
		cs.gate[q.wal] = lsn
	}
	var werr error
	switch {
	case err != nil:
		q.durFailed(cs, qOpNames[op], err)
		werr = s.replyErr(w, id, "durability: %v", err)
	case op == opDeleteMinBatch:
		werr = w.itemsFrame(id, envs, q.tagLen)
	case len(envs) == 0:
		buf, off := w.beginFrame(wire.TEmpty, id)
		werr = w.endFrame(buf, off)
	default:
		werr = w.itemFrame(id, envs[0], q.tagLen)
	}
	// The reply took ownership of the envelopes; the slice that carried
	// them stays with the connection.
	clear(envs)
	w.envs = envs[:0]
	return werr
}
