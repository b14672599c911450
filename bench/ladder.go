package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pq"
	"pq/internal/wire"
)

// span is one traced call made by the benchmark's own code: its name, when
// it began and ended, the op it belongs to and the span that caused it.
type span struct {
	name       string
	start, end int64 // ns since the tracer's origin
	op         int   // index of the op in its stream
	tid        int   // the caller that made it
	parent     int   // 1-based index of the parent span of the same tracer, 0 for none
}

// tracer keeps one goroutine's spans in memory until the run ends.
type tracer struct {
	origin time.Time
	tid    int
	spans  []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// add records a finished span and returns its 1-based index.
func (t *tracer) add(name string, start, end int64, op, parent int) int {
	t.spans = append(t.spans, span{name: name, start: start, end: end, op: op, tid: t.tid, parent: parent})
	return len(t.spans)
}

// writeChromeTrace writes every tracer's spans as Chrome trace-event JSON.
func writeChromeTrace(path string, tracers []*tracer) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	for _, t := range tracers {
		for i, s := range t.spans {
			if !first {
				w.WriteByte(',')
			}
			first = false
			fmt.Fprintf(w, "\n"+`{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"op":%d,"span":%d,"parent":%d}}`,
				s.name, s.tid, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.op, i+1, s.parent)
		}
	}
	fmt.Fprint(w, "\n]}\n")
	return w.Flush()
}

// tracedCaller records a span around every call of the caller it wraps.
type tracedCaller struct {
	inner caller
	t     *tracer
	op    int
}

func (c *tracedCaller) insert(pri int, id uint64) error {
	t0 := c.t.now()
	err := c.inner.insert(pri, id)
	c.t.add("insert", t0, c.t.now(), c.op, 0)
	c.op++
	return err
}

func (c *tracedCaller) deleteMin() (uint64, int, bool, error) {
	t0 := c.t.now()
	id, pri, ok, err := c.inner.deleteMin()
	c.t.add("delete_min", t0, c.t.now(), c.op, 0)
	c.op++
	return id, pri, ok, err
}

// ladderOps is the length of the ladder's op stream at this run length:
// 200 000 ops for a 60-second run, an even number.
func ladderOps(seconds float64) int {
	return max(200, int(200_000*seconds/60)) &^ 1
}

// bytesCaller is rung 0: the library queue called directly, holding the
// same 16-byte values the service rungs carry.
type bytesCaller struct{ q pq.Queue[[]byte] }

func (c bytesCaller) insert(pri int, id uint64) error {
	c.q.Insert(pri, putValue(make([]byte, valueLen), id))
	return nil
}

func (c bytesCaller) deleteMin() (uint64, int, bool, error) {
	v, ok := c.q.DeleteMin()
	if !ok {
		return 0, 0, false, nil
	}
	id, valid := parseValue(v)
	if !valid {
		return 0, 0, false, errCorrupt
	}
	return id, idPri(id), true, nil
}

// wireCaller is rung 1: rung 0 with every request and response passed
// through the wire codec in memory. Its child spans split each op into
// the codec part and the queue part.
type wireCaller struct {
	q    pq.Queue[[]byte]
	mem  memWire
	val  [valueLen]byte
	item []byte
	t    *tracer
	op   int // calls so far, which in the ladder is the op's index in the stream
}

func (c *wireCaller) insert(pri int, id uint64) error {
	parent := len(c.t.spans) + 3 // runLadder adds this op's span right after its two children
	t0 := c.t.now()
	view, err := c.mem.insert(pri, putValue(c.val[:], id))
	if err != nil {
		c.op++
		return err
	}
	t1 := c.t.now()
	c.q.Insert(int(view.Item.Pri), append([]byte(nil), view.Item.Value...))
	t2 := c.t.now()
	c.t.add("wire.codec", t0, t1, c.op, parent)
	c.t.add("core.insert", t1, t2, c.op, parent)
	c.op++
	return nil
}

func (c *wireCaller) deleteMin() (uint64, int, bool, error) {
	parent := len(c.t.spans) + 3
	t0 := c.t.now()
	v, ok := c.q.DeleteMin()
	t1 := c.t.now()
	var item []byte
	if ok {
		id, _ := parseValue(v)
		c.item = wire.AppendItem(c.item[:0], wire.Item{Pri: uint32(idPri(id)), Value: v})
		item = c.item
	}
	it, ok, err := c.mem.deleteMin(item)
	t2 := c.t.now()
	c.t.add("core.delete_min", t0, t1, c.op, parent)
	c.t.add("wire.codec", t1, t2, c.op, parent)
	c.op++
	if err != nil || !ok {
		return 0, 0, false, err
	}
	id, valid := parseValue(it.Value)
	if !valid {
		return 0, 0, false, errCorrupt
	}
	return id, int(it.Pri), true, nil
}

// rawCaller is rung 2: one raw frame at a time over loopback to a real
// server, with the benchmark's own driver in place of pqclient.
type rawCaller struct {
	rc       *rawConn
	ins, del rawBatch
}

func newRawCaller(rc *rawConn) *rawCaller {
	c := &rawCaller{rc: rc}
	c.ins.addInsert(make([]byte, valueLen))
	c.del.addDeleteMin()
	return c
}

func (c *rawCaller) insert(pri int, id uint64) error {
	off := c.ins.priOffs[0]
	binary.BigEndian.PutUint32(c.ins.buf[off:], uint32(pri))
	putValue(c.ins.buf[off+8:], id)
	return c.rc.exchange(&c.ins, nil)
}

func (c *rawCaller) deleteMin() (uint64, int, bool, error) {
	if err := c.rc.exchange(&c.del, nil); err != nil {
		return 0, 0, false, err
	}
	if c.rc.lastType == wire.TEmpty {
		return 0, 0, false, nil
	}
	it, err := wire.DecodeItem(c.rc.last)
	if err != nil {
		return 0, 0, false, err
	}
	id, valid := parseValue(it.Value)
	if !valid {
		return 0, 0, false, errCorrupt
	}
	return id, int(it.Pri), true, nil
}

// rung is one step of the ladder: a system to set up, on which a single
// caller then runs the shared op stream.
type rung struct {
	name  string
	setup func(p runParams, t *tracer) (*env, error)
}

// bytesQueueEnv is a library queue of 16-byte values with the given
// caller on it.
func bytesQueueEnv(mk func(q pq.Queue[[]byte]) caller) (*env, error) {
	q, err := pq.New[[]byte](pq.FunnelTree, priorities)
	if err != nil {
		return nil, err
	}
	return &env{
		caller: func() caller { return mk(q) },
		prefill: func(ids []uint64) error {
			for _, id := range ids {
				q.Insert(idPri(id), putValue(make([]byte, valueLen), id))
			}
			return nil
		},
		close: func() {},
	}, nil
}

var ladderRungs = []rung{
	{"ladder.core", func(runParams, *tracer) (*env, error) {
		return bytesQueueEnv(func(q pq.Queue[[]byte]) caller { return bytesCaller{q} })
	}},
	{"ladder.wire", func(_ runParams, t *tracer) (*env, error) {
		return bytesQueueEnv(func(q pq.Queue[[]byte]) caller { return &wireCaller{q: q, t: t} })
	}},
	{"ladder.server", func(runParams, *tracer) (*env, error) {
		n, rc, err := rawNode()
		if err != nil {
			return nil, err
		}
		return &env{
			caller:  func() caller { return newRawCaller(rc) },
			prefill: func(ids []uint64) error { return rawPrefill(rc, ids, valueLen) },
			close:   func() { rc.close(); n.stop() },
		}, nil
	}},
	{"ladder.pqclient", func(p runParams, _ *tracer) (*env, error) { return newServeEnv(p, false, 1) }},
	{"ladder.wal", func(p runParams, _ *tracer) (*env, error) { return newServeEnv(p, true, 1) }},
	{"ladder.cluster", func(p runParams, _ *tracer) (*env, error) { return newClusterEnv(p.seed) }},
}

// runLadder drives one caller at depth 1 through the same op stream at
// every rung, records a span around each call, and derives each layer's
// self time as its rung minus the rung it wraps. A rung that measures
// faster than the one it wraps reads 0.
func runLadder(p runParams, out map[string]float64) (*tracer, []string, error) {
	ops := ladderOps(p.seconds)
	stream := genStream(p.seed, 0, ops, priorities)
	prefill := prefillIDs(p.seed, prefillN)
	t := &tracer{origin: time.Now()}
	var problems []string
	mean := map[string]float64{}
	for _, r := range ladderRungs {
		e, err := r.setup(p, t)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", r.name, err)
		}
		if err := e.prefill(prefill); err != nil {
			e.close()
			return nil, nil, fmt.Errorf("%s: %w", r.name, err)
		}
		c := e.caller()
		var rec callerRec
		var total int64
		var seq uint64
		for i := 0; i < ops; i++ {
			insert, pri := stream.at(i)
			var id uint64
			if insert {
				id = makeID(0, seq, pri)
				seq++
			}
			t0 := t.now()
			o := rec.do(c, insert, pri, id)
			t1 := t.now()
			t.add(r.name, t0, t1, i, 0)
			total += t1 - t0
			if o == kFailed {
				problems = append(problems, fmt.Sprintf("%s: op %d failed", r.name, i))
			}
		}
		e.close()
		mean[r.name] = float64(total) / float64(ops)
	}
	self := func(rung, wraps string) float64 { return max(mean[rung]-mean[wraps], 0) }
	out["ladder.core_ns"] = mean["ladder.core"]
	out["ladder.wire_ns"] = self("ladder.wire", "ladder.core")
	out["ladder.server_ns"] = self("ladder.server", "ladder.wire")
	out["ladder.pqclient_ns"] = self("ladder.pqclient", "ladder.server")
	out["ladder.wal_ns"] = self("ladder.wal", "ladder.pqclient")
	out["ladder.cluster_ns"] = self("ladder.cluster", "ladder.pqclient")
	out["ladder.total_ns"] = out["ladder.core_ns"] + out["ladder.wire_ns"] + out["ladder.server_ns"] +
		out["ladder.pqclient_ns"] + out["ladder.wal_ns"] + out["ladder.cluster_ns"]
	return t, problems, nil
}

// traceOverhead runs serve_pipelined briefly without and with a span
// recorded around every client call, and returns the throughput share
// lost to tracing with the traced run's tracers.
func traceOverhead(p runParams) (float64, []*tracer, []string, error) {
	ls, _ := loadSpecFor("serve_pipelined")
	short := p
	short.seconds = p.seconds / 6
	plain, err := runLoad(short, ls)
	if err != nil {
		return 0, nil, nil, err
	}
	var tracers []*tracer
	origin := time.Now()
	traced := ls
	traced.setup = func(p runParams) (*env, error) {
		e, err := ls.setup(p)
		if err != nil {
			return nil, err
		}
		tracers = nil // keep only the tracers of the last, measured set-up
		inner := e.caller
		e.caller = func() caller {
			t := &tracer{origin: origin, tid: len(tracers) + 1}
			tracers = append(tracers, t)
			return &tracedCaller{inner: inner(), t: t}
		}
		return e, nil
	}
	withSpans, err := runLoad(short, traced)
	if err != nil {
		return 0, nil, nil, err
	}
	problems := append(plain.problems, withSpans.problems...)
	return max(1-withSpans.e2e["ops_per_s"]/plain.e2e["ops_per_s"], 0), tracers, problems, nil
}
