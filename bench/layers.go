package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pq"
	"pq/internal/obs"
	"pq/internal/server"
	"pq/internal/wal"
	"pq/internal/wire"
	"pq/pqclient"
)

// The per-layer probes time calls into each module's public functions
// from outside; nothing inside the modules is instrumented. Each probe
// writes the metrics of its layer into out.

// sink keeps the compiler from discarding probe results. Only
// single-goroutine probes write it.
var sink uint64

func prefillNative(q pq.Queue[uint64], seed uint64) {
	for _, id := range prefillIDs(seed, prefillN) {
		q.Insert(idPri(id), id)
	}
}

func probeCore(p runParams, out map[string]float64) error {
	stream := genStream(p.seed, 0, streamLen, priorities)
	for _, alg := range []pq.Algorithm{pq.FunnelTree, pq.SimpleLinear, pq.MultiQueue} {
		q, err := pq.New[uint64](alg, priorities)
		if err != nil {
			return err
		}
		prefillNative(q, p.seed)
		// Alternate blocks of inserts and of delete-mins, timing each
		// kind as a block so that no clock read sits between ops.
		const block = 256
		var insNs, delNs time.Duration
		var blocks, pos int
		var seq uint64
		for insNs+delNs < p.probeDur() || blocks < 2 {
			t0 := time.Now()
			for i := 0; i < block; i++ {
				_, pri := stream.at(pos)
				pos++
				q.Insert(pri, makeID(0, seq, pri))
				seq++
			}
			t1 := time.Now()
			for i := 0; i < block; i++ {
				v, _ := q.DeleteMin()
				sink += v
			}
			insNs += t1.Sub(t0)
			delNs += time.Since(t1)
			blocks++
		}
		out["core."+string(alg)+".insert_ns"] = float64(insNs.Nanoseconds()) / float64(blocks*block)
		out["core."+string(alg)+".delete_ns"] = float64(delNs.Nanoseconds()) / float64(blocks*block)
		if rs, ok := pq.RelaxStatsOf(q); ok {
			out["core."+string(alg)+".rank_err_mean"] = rs.Mean()
		}
		if alg != pq.FunnelTree {
			continue
		}
		const n = 20000
		out["core.allocs_per_op"] = allocsPer(n, func() {
			for i := 0; i < n; i++ {
				if insert, pri := stream.at(i); insert {
					q.Insert(pri, makeID(0, seq, pri))
					seq++
				} else {
					v, _ := q.DeleteMin()
					sink += v
				}
			}
		})
		items := make([]pq.Item[uint64], 16)
		ns, _ := timeLoop(p.probeDur(), 16, func(iters int) {
			for ; iters > 0; iters-- {
				for i := range items {
					_, pri := stream.at(pos)
					pos++
					items[i] = pq.Item[uint64]{Pri: pri, Val: makeID(0, seq, pri)}
					seq++
				}
				pq.InsertBatch(q, items)
				sink += uint64(len(pq.DeleteMinBatch(q, len(items))))
			}
		})
		out["core.FunnelTree.batch16_ns_per_item"] = ns / float64(2*len(items))
	}
	return nil
}

// forAbout runs n goroutines for about dur: each gets its own step from mk
// and calls it until time is up or it fails. tick, if not nil, runs every
// 2 ms meanwhile on the calling goroutine. It returns the steps completed,
// the wall time taken, and the first error.
func forAbout(n int, dur time.Duration, tick func(), mk func(i int) (step func() error)) (steps int64, elapsed time.Duration, err error) {
	var stop atomic.Bool
	var total atomic.Int64
	var mu sync.Mutex
	t0 := time.Now()
	runCallers(n, func(i int) {
		step := mk(i)
		var done int64
		for ; !stop.Load(); done++ {
			if serr := step(); serr != nil {
				mu.Lock()
				if err == nil {
					err = serr
				}
				mu.Unlock()
				break
			}
		}
		total.Add(done)
	}, func() {
		for end := t0.Add(dur); time.Now().Before(end); time.Sleep(min(2*time.Millisecond, dur)) {
			if tick != nil {
				tick()
			}
		}
		stop.Store(true)
	})
	return total.Load(), time.Since(t0), err
}

// contend runs one step per round on GOMAXPROCS goroutines for about dur
// and returns the mean wall nanoseconds one goroutine spent per round, and
// the rounds.
func contend(dur time.Duration, round func()) (nsPerRound float64, rounds int64) {
	n := runtime.GOMAXPROCS(0)
	rounds, elapsed, _ := forAbout(n, dur, nil, func(int) func() error {
		return func() error { round(); return nil }
	})
	rounds = max(rounds, 1)
	return float64(elapsed.Nanoseconds()) * float64(n) / float64(rounds), rounds
}

func probeFunnel(p runParams, out map[string]float64) {
	c := pq.NewCounterBounds(0, 0, capacity)
	pairNs, pairs := contend(p.probeDur(), func() {
		c.BFaI()
		c.FaD()
	})
	out["funnel.counter_pair_ns"] = pairNs
	s := pq.NewStack[uint64]()
	pushPopNs, pushPops := contend(p.probeDur(), func() {
		s.Push(1)
		s.Pop()
	})
	out["funnel.stack_pushpop_ns"] = pushPopNs
	cs, ss := c.Stats(), s.Stats()
	ops := float64(2 * (pairs + pushPops))
	out["funnel.combined_frac"] = float64(cs.Combined+ss.Combined) / ops
	out["funnel.eliminated_frac"] = float64(cs.Eliminated+ss.Eliminated) / ops
	out["funnel.central_retry_frac"] = float64(cs.CentralRetry) / math.Max(float64(cs.Central), 1)
}

func probeWire(p runParams, out map[string]float64) error {
	value := putValue(make([]byte, valueLen), makeID(0, 1, 5))
	ins := wire.Insert{Queue: queueName, Item: wire.Item{Pri: 5, Value: value}}
	var items wire.Items
	for i := 0; i < 16; i++ {
		items.Items = append(items.Items, wire.Item{Pri: uint32(i), Value: value})
	}
	buf := make([]byte, 0, 4096)
	encodeInsert := func() []byte {
		b, off := wire.BeginFrame(buf[:0], wire.TInsert, 7)
		return wire.EndFrame(ins.Append(b), off)
	}
	encodeItems := func() []byte {
		b, off := wire.BeginFrame(buf[:0], wire.TItems, 7)
		return wire.EndFrame(items.Append(b), off)
	}
	var failed error
	loop := func(name string, fn func() error) {
		ns, _ := timeLoop(p.probeDur(), 1000, func(n int) {
			for ; n > 0; n-- {
				if err := fn(); err != nil {
					failed = fmt.Errorf("%s: %w", name, err)
				}
			}
		})
		out[name] = ns
	}
	loop("wire.encode_insert_ns", func() error { sink += uint64(len(encodeInsert())); return nil })
	insFrame := append([]byte(nil), encodeInsert()...)
	loop("wire.decode_insert_ns", func() error {
		f, _, err := wire.DecodeFrame(insFrame)
		if err != nil {
			return err
		}
		m, err := wire.DecodeInsertView(f.Payload)
		sink += uint64(m.Item.Pri)
		return err
	})
	loop("wire.encode_items16_ns", func() error { sink += uint64(len(encodeItems())); return nil })
	itemsFrame := append([]byte(nil), encodeItems()...)
	loop("wire.decode_items16_ns", func() error {
		f, _, err := wire.DecodeFrame(itemsFrame)
		if err != nil {
			return err
		}
		m, err := wire.DecodeItems(f.Payload)
		sink += uint64(len(m.Items))
		return err
	})
	loop("wire.buf_cycle_ns", func() error { wire.PutBuf(wire.GetBuf(64)); return nil })

	var mem memWire
	const n = 5000
	out["wire.allocs_per_roundtrip"] = allocsPer(n, func() {
		for i := 0; i < n; i++ {
			if _, err := mem.insert(5, value); err != nil {
				failed = err
			}
			if _, _, err := mem.deleteMin(stubItem); err != nil {
				failed = err
			}
		}
	})
	return failed
}

// memWire passes one request and its response through the codec in
// memory, as a server and client would, with no socket between them.
type memWire struct{ req, resp []byte }

// insert encodes and decodes an INSERT and its INSERT_OK; it returns the
// decoded request so the caller can hand it to a queue.
func (m *memWire) insert(pri int, value []byte) (wire.InsertView, error) {
	b, off := wire.BeginFrame(m.req[:0], wire.TInsert, 1)
	m.req = wire.EndFrame(wire.Insert{Queue: queueName, Item: wire.Item{Pri: uint32(pri), Value: value}}.Append(b), off)
	f, _, err := wire.DecodeFrame(m.req)
	if err != nil {
		return wire.InsertView{}, err
	}
	view, err := wire.DecodeInsertView(f.Payload)
	if err != nil {
		return view, err
	}
	b, off = wire.BeginFrame(m.resp[:0], wire.TInsertOK, 1)
	m.resp = wire.EndFrame(wire.InsertOK{Accepted: 1}.Append(b), off)
	f, _, err = wire.DecodeFrame(m.resp)
	if err != nil {
		return view, err
	}
	_, err = wire.DecodeInsertOK(f.Payload)
	return view, err
}

// deleteMin encodes and decodes a DELETE_MIN and an ITEM response whose
// payload is item (an encoded wire.Item).
func (m *memWire) deleteMin(item []byte) (wire.Item, bool, error) {
	b, off := wire.BeginFrame(m.req[:0], wire.TDeleteMin, 2)
	m.req = wire.EndFrame(wire.QueueReq{Queue: queueName}.Append(b), off)
	f, _, err := wire.DecodeFrame(m.req)
	if err != nil {
		return wire.Item{}, false, err
	}
	if _, err := wire.DecodeQueueReqView(f.Payload); err != nil {
		return wire.Item{}, false, err
	}
	if item == nil {
		m.resp = wire.AppendFrameHeader(m.resp[:0], wire.TEmpty, 2, 0)
		_, _, err := wire.DecodeFrame(m.resp)
		return wire.Item{}, false, err
	}
	m.resp = append(wire.AppendFrameHeader(m.resp[:0], wire.TItem, 2, len(item)), item...)
	f, _, err = wire.DecodeFrame(m.resp)
	if err != nil {
		return wire.Item{}, false, err
	}
	it, err := wire.DecodeItem(f.Payload)
	return it, true, err
}

// scrape reads one server's /metrics through its admin handler.
func scrape(h http.Handler) (map[string]float64, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d", rec.Code)
	}
	samples := map[string]float64{}
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			samples[line[:i]] = v
		}
	}
	return samples, sc.Err()
}

// promQuantile reads the q-quantile off a scraped Prometheus histogram:
// the smallest bucket bound that covers q of the samples.
func promQuantile(samples map[string]float64, name string, q float64) float64 {
	type bucket struct{ le, cum float64 }
	var buckets []bucket
	prefix := name + `_bucket{le="`
	for k, v := range samples {
		if rest, ok := strings.CutPrefix(k, prefix); ok {
			if le, err := strconv.ParseFloat(strings.TrimSuffix(rest, `"}`), 64); err == nil {
				buckets = append(buckets, bucket{le, v})
			}
		}
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	need := q * samples[name+"_count"]
	for _, b := range buckets {
		if b.cum >= need {
			return b.le
		}
	}
	return math.Inf(1)
}

// rawPrefill inserts ids, with values of the given size, through raw
// INSERT_BATCH frames.
func rawPrefill(rc *rawConn, ids []uint64, valueSize int) error {
	const chunk = 250
	for len(ids) > 0 {
		n := min(chunk, len(ids))
		items := make([]wire.Item, n)
		for i, id := range ids[:n] {
			v := make([]byte, valueSize)
			putValue(v, id)
			items[i] = wire.Item{Pri: uint32(idPri(id)), Value: v}
		}
		var b rawBatch
		b.addInsertBatch(items)
		if err := rc.exchange(&b, nil); err != nil {
			return err
		}
		ids = ids[n:]
	}
	return nil
}

// rawNode is an in-memory node with one raw connection to it.
func rawNode() (*node, *rawConn, error) {
	ln, err := listenLoopback()
	if err != nil {
		return nil, nil, err
	}
	n, err := startNode(server.Config{}, ln, nil)
	if err != nil {
		return nil, nil, err
	}
	rc, err := dialRaw(n.addr)
	if err != nil {
		n.stop()
		return nil, nil, err
	}
	return n, rc, nil
}

// timeExchanges repeats one batch exchange for about dur and returns
// nanoseconds per request frame.
func timeExchanges(dur time.Duration, rc *rawConn, b *rawBatch, pri func() int) (float64, int, error) {
	var failed error
	ns, iters := timeLoop(dur, 8, func(n int) {
		for ; n > 0 && failed == nil; n-- {
			failed = rc.exchange(b, pri)
		}
	})
	return ns / float64(len(b.kinds)), iters * len(b.kinds), failed
}

func probeServer(p runParams, out map[string]float64) error {
	r := rng(mix64(p.seed ^ 0x736572766572))
	pri := func() int { return r.intn(priorities) }
	value := putValue(make([]byte, valueLen), makeID(0, 1, 0))

	n, rc, err := rawNode()
	if err != nil {
		return err
	}
	defer n.stop()
	defer rc.close()
	if err := rawPrefill(rc, prefillIDs(p.seed, prefillN), valueLen); err != nil {
		return err
	}
	admin := n.srv.AdminHandler()

	// Depth 16 first, on a fresh server, so that its flush and
	// pipeline-depth counters describe depth 16 alone.
	var d16 rawBatch
	for i := 0; i < 8; i++ {
		d16.addInsert(value)
		d16.addDeleteMin()
	}
	if _, _, err := timeExchanges(p.probeDur()/4, rc, &d16, pri); err != nil { // warm pools and histograms
		return err
	}
	before, err := scrape(admin)
	if err != nil {
		return err
	}
	mem0 := readMem()
	ns, reqs, err := timeExchanges(p.probeDur(), rc, &d16, pri)
	if err != nil {
		return err
	}
	out["server.raw_d16_ns_per_req"] = ns
	out["server.allocs_per_req"] = float64(readMem().mallocs-mem0.mallocs) / float64(reqs)
	after, err := scrape(admin)
	if err != nil {
		return err
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	out["server.responses_per_flush"] = delta("pq_frames_written_total") / math.Max(delta("pq_response_flushes_total"), 1)
	out["server.pipeline_depth_p50"] = promQuantile(after, "pq_pipeline_depth", 0.5)
	st := n.stats()
	if st.Latency != nil {
		out["server.insert_service_p50_ns"] = st.Latency.Insert.P50
		out["server.delete_service_p50_ns"] = st.Latency.DeleteMin.P50
	}
	out["server.shed_frac"] = float64(st.RetryAfter) / math.Max(float64(st.Inserts+st.RetryAfter), 1)
	out["server.empty_delete_frac"] = float64(st.EmptyDeletes) / math.Max(float64(st.Deletes+st.EmptyDeletes), 1)
	var shardOps []float64
	for s := 0; s < shards; s++ {
		lbl := fmt.Sprintf(`{queue=%q,shard="%d"}`, queueName, s)
		shardOps = append(shardOps, after["pq_queue_shard_inserts_total"+lbl]+after["pq_queue_shard_deletes_total"+lbl])
	}
	var sum, most float64
	for _, v := range shardOps {
		sum += v
		most = max(most, v)
	}
	out["server.shard_imbalance"] = most * shards / math.Max(sum, 1)

	var d1ins, d1del rawBatch
	d1ins.addInsert(value)
	d1del.addDeleteMin()
	var failed error
	ns, _ = timeLoop(p.probeDur(), 8, func(n int) {
		for ; n > 0 && failed == nil; n-- {
			if failed = rc.exchange(&d1ins, pri); failed == nil {
				failed = rc.exchange(&d1del, nil)
			}
		}
	})
	if failed != nil {
		return failed
	}
	out["server.raw_d1_ns_per_req"] = ns / 2

	var b16 rawBatch
	items := make([]wire.Item, 16)
	for i := range items {
		items[i] = wire.Item{Pri: uint32(pri()), Value: value}
	}
	b16.addInsertBatch(items)
	b16.addDeleteMinBatch(len(items))
	ns, _, err = timeExchanges(p.probeDur(), rc, &b16, nil)
	if err != nil {
		return err
	}
	out["server.raw_batch16_ns_per_item"] = ns / float64(len(items)) // ns per frame, 16 items a frame

	// 4 KiB values take the server's splice-by-reference response path.
	n4k, rc4k, err := rawNode()
	if err != nil {
		return err
	}
	defer n4k.stop()
	defer rc4k.close()
	if err := rawPrefill(rc4k, prefillIDs(p.seed, prefillN), 4096); err != nil {
		return err
	}
	var d16big rawBatch
	big := make([]byte, 4096)
	putValue(big, makeID(0, 2, 0))
	for i := 0; i < 8; i++ {
		d16big.addInsert(big)
		d16big.addDeleteMin()
	}
	ns, _, err = timeExchanges(p.probeDur(), rc4k, &d16big, pri)
	out["server.raw_d16_4k_ns_per_req"] = ns
	return err
}

func probeWAL(p runParams, out map[string]float64) error {
	value := putValue(make([]byte, valueLen), 1)
	open := func(policy wal.SyncPolicy) (*wal.Log, func(), error) {
		dir, remove, err := tempDir(p.tmp, "walprobe-*")
		if err != nil {
			return nil, nil, err
		}
		l, _, err := wal.Open(wal.Options{Dir: dir, Policy: policy})
		if err != nil {
			remove()
			return nil, nil, err
		}
		return l, func() { l.Close(); remove() }, nil
	}
	// One round is an insert record and the delete record of the same id.
	round := func(l *wal.Log) error {
		id := l.AllocIDs(1)
		if err := l.AppendInsert([]wal.Item{{ID: id, Pri: 3, Value: value}}); err != nil {
			return err
		}
		return l.AppendDelete([]uint64{id})
	}
	var failed error
	appendNs := func(l *wal.Log, batch int) float64 {
		ns, _ := timeLoop(p.probeDur(), batch, func(n int) {
			for ; n > 0 && failed == nil; n-- {
				failed = round(l)
			}
		})
		return ns / 2
	}

	never, done, err := open(wal.SyncNever)
	if err != nil {
		return err
	}
	out["wal.append_never_ns"] = appendNs(never, 64)
	st := never.Stats()
	out["wal.bytes_per_user_byte"] = float64(st.WALBytes) / (float64(st.Appends) / 2 * valueLen)
	done()

	interval, done, err := open(wal.SyncInterval)
	if err != nil {
		return err
	}
	out["wal.append_interval_ns"] = appendNs(interval, 64)
	done()

	always, done, err := open(wal.SyncAlways)
	if err != nil {
		return err
	}
	out["wal.append_always_us"] = appendNs(always, 1) / 1e3
	done()

	group, done, err := open(wal.SyncAlways)
	if err != nil {
		return err
	}
	_, _, err = forAbout(16, p.probeDur(), nil, func(int) func() error {
		return func() error { return round(group) }
	})
	st = group.Stats()
	out["wal.group_commit_appends_per_fsync"] = float64(st.Appends) / math.Max(float64(st.Syncs), 1)
	done()
	if err != nil {
		return err
	}
	if failed != nil {
		return failed
	}

	// Replay: a log of live items, closed and opened again.
	dir, remove, err := tempDir(p.tmp, "walreplay-*")
	if err != nil {
		return err
	}
	defer remove()
	l, _, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncNever})
	if err != nil {
		return err
	}
	live := max(1000, int(20000*p.seconds/defaultSeconds))
	items := make([]wal.Item, 0, live)
	for len(items) < live {
		batch := make([]wal.Item, 100)
		first := l.AllocIDs(len(batch))
		for i := range batch {
			batch[i] = wal.Item{ID: first + uint64(i), Pri: uint32(i % priorities), Value: value}
		}
		if err := l.AppendInsert(batch); err != nil {
			l.Close()
			return err
		}
		items = append(items, batch...)
	}
	if err := l.Close(); err != nil {
		return err
	}
	t0 := time.Now()
	l, rec, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncNever})
	if err != nil {
		return err
	}
	defer l.Close()
	if len(rec.Items) != len(items) {
		return fmt.Errorf("wal replay recovered %d of %d items", len(rec.Items), len(items))
	}
	out["wal.replay_items_per_s"] = float64(len(items)) / time.Since(t0).Seconds()
	var snaps []float64
	for i := 0; i < 3; i++ {
		t0 = time.Now()
		if err := l.Snapshot(items); err != nil {
			return err
		}
		snaps = append(snaps, float64(time.Since(t0).Nanoseconds())/1e6*100_000/float64(len(items)))
	}
	out["wal.snapshot_ms_per_100k"] = median(snaps)
	return nil
}

func probeClient(p runParams, out map[string]float64) error {
	stub, err := startStub()
	if err != nil {
		return err
	}
	defer stub.stop()
	c, err := pqclient.Dial(pqclient.Config{Addr: stub.addr(), Conns: 1})
	if err != nil {
		return err
	}
	defer c.Close()

	var failed error
	one := &clientCaller{c: c}
	inserts := func(n int) {
		for ; n > 0 && failed == nil; n-- {
			failed = one.insert(3, makeID(0, 1, 3))
		}
	}
	deletes := func(n int) {
		for ; n > 0 && failed == nil; n-- {
			_, _, _, failed = one.deleteMin()
		}
	}
	ns, _ := timeLoop(p.probeDur(), 8, func(n int) {
		inserts(n)
		deletes(n)
	})
	out["pqclient.stub_d1_ns_per_op"] = ns / 2
	const n = 2000
	out["pqclient.allocs_per_insert"] = allocsPer(n, func() { inserts(n) })
	out["pqclient.allocs_per_delete"] = allocsPer(n, func() { deletes(n) })
	if failed != nil {
		return failed
	}

	frames0, items0 := stub.insertFrames.Load(), stub.insertItems.Load()
	pairs, elapsed, err := forAbout(16, p.probeDur(), nil, func(int) func() error {
		cl := &clientCaller{c: c}
		return func() error {
			if err := cl.insert(3, makeID(0, 1, 3)); err != nil {
				return err
			}
			_, _, _, err := cl.deleteMin()
			return err
		}
	})
	out["pqclient.stub_d16_ns_per_op"] = float64(elapsed.Nanoseconds()) / math.Max(float64(2*pairs), 1)
	out["pqclient.items_per_insert_frame"] = float64(stub.insertItems.Load()-items0) / math.Max(float64(stub.insertFrames.Load()-frames0), 1)
	return err
}

func probeCluster(p runParams, out map[string]float64) error {
	ce, err := startCluster(p.seed)
	if err != nil {
		return err
	}
	defer ce.close()
	if err := clientPrefill(ce.cc, prefillIDs(p.seed, prefillN)); err != nil {
		return err
	}
	// Request frames and admitted items, summed over the nodes.
	counters := func() (frames, inserts float64, perNode []float64, err error) {
		for _, n := range ce.nodes {
			m, err := scrape(n.srv.AdminHandler())
			if err != nil {
				return 0, 0, nil, err
			}
			st := n.stats()
			frames += m["pq_frames_read_total"]
			inserts += float64(st.Inserts)
			perNode = append(perNode, float64(st.Inserts+st.Deletes+st.EmptyDeletes))
		}
		return frames, inserts, perNode, nil
	}
	one := &clientCaller{c: ce.cc}
	r := rng(mix64(p.seed ^ 0x636c7573746572))
	ops := max(200, int(2000*p.seconds/defaultSeconds))

	f0, _, _, err := counters()
	if err != nil {
		return err
	}
	for i := 0; i < ops; i++ {
		pri := r.intn(priorities)
		if err := one.insert(pri, makeID(probeCaller, uint64(i), pri)); err != nil {
			return err
		}
	}
	f1, i1, _, err := counters()
	if err != nil {
		return err
	}
	for i := 0; i < ops; i++ {
		if _, _, _, err := one.deleteMin(); err != nil {
			return err
		}
	}
	f2, i2, n2, err := counters()
	if err != nil {
		return err
	}
	out["cluster.frames_per_insert"] = (f1 - f0) / float64(ops)
	out["cluster.frames_per_delete"] = (f2 - f1) / float64(ops)
	out["cluster.putback_frac"] = (i2 - i1) / float64(ops) // admitted with no client insert: put-backs

	// A short mixed run with every caller, watching the stash and how the
	// ops spread over the nodes.
	var stashMax int
	watchStash := func() { stashMax = max(stashMax, ce.cc.Stashed()) }
	if _, _, err := forAbout(2*callersPer, 4*p.probeDur(), watchStash, func(i int) func() error {
		cl := &clientCaller{c: ce.cc}
		stream := genStream(p.seed, i, streamLen, priorities)
		var seq uint64
		k := 0
		return func() error {
			insert, pri := stream.at(k)
			k++
			if !insert {
				_, _, _, err := cl.deleteMin()
				return err
			}
			seq++
			return cl.insert(pri, makeID(i, seq, pri))
		}
	}); err != nil {
		return err
	}
	_, _, n3, err := counters()
	if err != nil {
		return err
	}
	var sum, most float64
	for i := range n3 {
		d := n3[i] - n2[i]
		sum += d
		most = max(most, d)
	}
	out["cluster.stash_max"] = float64(stashMax)
	out["cluster.node_share_max"] = most / math.Max(sum, 1)

	// Rank error: one caller drains a known bag; a pop's rank error is how
	// many strictly better items were still queued.
	if _, err := clientDrain(ce.cc); err != nil {
		return err
	}
	var remaining [priorities]int
	bag := prefillIDs(p.seed+1, ops)
	if err := clientPrefill(ce.cc, bag); err != nil {
		return err
	}
	for _, id := range bag {
		remaining[idPri(id)]++
	}
	var rankSum int
	for range bag {
		it, ok, err := ce.cc.DeleteMin(context.Background(), queueName)
		if err != nil || !ok {
			return fmt.Errorf("cluster rank probe: delete-min ok=%v err=%v with items queued", ok, err)
		}
		for pri := 0; pri < it.Pri; pri++ {
			rankSum += remaining[pri]
		}
		remaining[it.Pri]--
	}
	out["cluster.rank_err_mean"] = float64(rankSum) / float64(len(bag))
	return nil
}

func probeObs(p runParams, out map[string]float64) {
	c := obs.NewCounter(runtime.GOMAXPROCS(0))
	out["obs.counter_add_ns"], _ = timeLoop(p.probeDur(), 1000, func(n int) {
		for i := 0; i < n; i++ {
			c.Add(uint64(i), 1)
		}
	})
	h := obs.NewLatencyHistogram(runtime.GOMAXPROCS(0))
	out["obs.hist_observe_ns"], _ = timeLoop(p.probeDur(), 1000, func(n int) {
		for i := 0; i < n; i++ {
			h.Observe(uint64(i), int64(i)*37)
		}
	})
	sink += uint64(c.Load())
}
