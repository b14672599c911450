package server

import (
	"io"
	"sync/atomic"
	"time"

	"pq"
	"pq/internal/obs"
	"pq/internal/wire"
)

// Server-side observability (the ops counterpart of the simulator's
// cycle-accurate tracing): every request the server handles is timed
// and counted into lock-free striped structures (internal/obs), keyed
// by queue, operation, and shard. The recording path is allocation-
// free and always on (bench/ prices it as obs.counter_add_ns and
// obs.hist_observe_ns). The numbers surface three ways: the Prometheus
// /metrics endpoint (admin.go), the JSON /statusz snapshot, and the
// STATS op's latency sections.

// qOp enumerates the request kinds recorded per queue.
type qOp int

const (
	opInsert qOp = iota
	opInsertBatch
	opDeleteMin
	opDeleteMinBatch
	opStats
	opDrain
	nQOps
)

var qOpNames = [nQOps]string{
	"insert", "insert_batch", "delete_min", "delete_min_batch", "stats", "drain",
}

// mutationOps are the ops with latency histograms (stats/drain are
// counted but not timed — they never touch the shards' hot path).
var mutationOps = [...]qOp{opInsert, opInsertBatch, opDeleteMin, opDeleteMinBatch}

// serverMetrics aggregates protocol- and connection-level series.
type serverMetrics struct {
	started       time.Time
	connsAccepted atomic.Int64
	connsActive   atomic.Int64
	framesRead    *obs.Counter
	framesWritten *obs.Counter
	bytesRead     *obs.Counter
	bytesWritten  *obs.Counter
	resyncs       *obs.Counter
	// flushes counts response writes: one write(2) per flush of the
	// connection's buffered writer (or per value too big to buffer), so
	// frames_written/flushes is the syscall-batching factor.
	flushes *obs.Counter
	// pipelineDepth observes how many pipelined requests each
	// micro-batch flush covered — the server-side measure of client
	// pipelining actually achieved.
	pipelineDepth *obs.Histogram
}

func newServerMetrics(stripes int) *serverMetrics {
	return &serverMetrics{
		started:       time.Now(),
		framesRead:    obs.NewCounter(stripes),
		framesWritten: obs.NewCounter(stripes),
		bytesRead:     obs.NewCounter(stripes),
		bytesWritten:  obs.NewCounter(stripes),
		resyncs:       obs.NewCounter(stripes),
		flushes:       obs.NewCounter(stripes),
		pipelineDepth: obs.NewHistogram(stripes, 0, 12),
	}
}

// queueMetrics is one servedQueue's op series. Latency histograms time
// the queue operation itself (admission + WAL append + shard RMW), not
// decode or socket writes, so they separate queue cost from wire cost.
type queueMetrics struct {
	lat     [nQOps]*obs.Histogram
	ops     [nQOps]*obs.Counter
	slowOps atomic.Int64
}

func newQueueMetrics(stripes int) *queueMetrics {
	m := new(queueMetrics)
	for op := qOp(0); op < nQOps; op++ {
		m.ops[op] = obs.NewCounter(stripes)
	}
	for _, op := range mutationOps {
		m.lat[op] = obs.NewLatencyHistogram(stripes)
	}
	return m
}

// distFromHist converts an obs snapshot into the wire schema's compact
// distribution summary.
func distFromHist(s obs.HistSnapshot) wire.Dist {
	return wire.Dist{
		Count: s.Count,
		Mean:  s.Mean(),
		P50:   s.Quantile(0.50),
		P90:   s.Quantile(0.90),
		P99:   s.Quantile(0.99),
	}
}

// latencyStats builds the STATS latency section.
func (q *servedQueue) latencyStats() *wire.ServerLatencyStats {
	m := q.met
	return &wire.ServerLatencyStats{
		Insert:         distFromHist(m.lat[opInsert].Snapshot()),
		InsertBatch:    distFromHist(m.lat[opInsertBatch].Snapshot()),
		DeleteMin:      distFromHist(m.lat[opDeleteMin].Snapshot()),
		DeleteMinBatch: distFromHist(m.lat[opDeleteMinBatch].Snapshot()),
	}
}

// writeProm renders every metric family in Prometheus text format.
// Families are emitted family-outer, queue-inner, as the exposition
// format requires.
func (s *Server) writeProm(w io.Writer) error {
	p := obs.NewPromWriter(w)
	m := s.met

	s.mu.RLock()
	queues := make([]*servedQueue, 0, len(s.queues))
	for _, q := range s.queues {
		queues = append(queues, q)
	}
	s.mu.RUnlock()

	p.Header("pq_uptime_seconds", "gauge", "Seconds since the server started.")
	p.Sample("pq_uptime_seconds", "", time.Since(m.started).Seconds())
	p.Header("pq_connections_accepted_total", "counter", "TCP connections accepted.")
	p.Sample("pq_connections_accepted_total", "", float64(m.connsAccepted.Load()))
	p.Header("pq_connections_active", "gauge", "Currently open connections.")
	p.Sample("pq_connections_active", "", float64(m.connsActive.Load()))
	p.Header("pq_frames_read_total", "counter", "Request frames decoded.")
	p.Sample("pq_frames_read_total", "", float64(m.framesRead.Load()))
	p.Header("pq_frames_written_total", "counter", "Response frames written.")
	p.Sample("pq_frames_written_total", "", float64(m.framesWritten.Load()))
	p.Header("pq_bytes_read_total", "counter", "Bytes read from connections.")
	p.Sample("pq_bytes_read_total", "", float64(m.bytesRead.Load()))
	p.Header("pq_bytes_written_total", "counter", "Bytes written to connections.")
	p.Sample("pq_bytes_written_total", "", float64(m.bytesWritten.Load()))
	p.Header("pq_frame_resyncs_total", "counter", "Recoverable bad-version/bad-flags frames answered with ERROR.")
	p.Sample("pq_frame_resyncs_total", "", float64(m.resyncs.Load()))
	p.Header("pq_response_flushes_total", "counter", "Response flushes (one write(2) per flush).")
	p.Sample("pq_response_flushes_total", "", float64(m.flushes.Load()))
	p.Header("pq_pipeline_depth", "histogram", "Pipelined requests handled per response flush.")
	p.Histogram("pq_pipeline_depth", "", m.pipelineDepth.Snapshot(), 1)

	p.Header("pq_queue_ops_total", "counter", "Requests handled, by queue and operation.")
	for _, q := range queues {
		for op := qOp(0); op < nQOps; op++ {
			p.Sample("pq_queue_ops_total",
				obs.Labels(map[string]string{"queue": q.spec.Name, "op": qOpNames[op]}),
				float64(q.met.ops[op].Load()))
		}
	}
	p.Header("pq_queue_op_latency_seconds", "histogram", "Server-side op service time (queue mutation only, excludes decode, the WAL wait and socket writes).")
	for _, q := range queues {
		for _, op := range mutationOps {
			p.Histogram("pq_queue_op_latency_seconds",
				obs.Labels(map[string]string{"queue": q.spec.Name, "op": qOpNames[op]}),
				q.met.lat[op].Snapshot(), 1e-9)
		}
	}
	p.Header("pq_queue_slow_ops_total", "counter", "Ops that exceeded the slow-op log threshold.")
	for _, q := range queues {
		p.Sample("pq_queue_slow_ops_total",
			obs.Labels(map[string]string{"queue": q.spec.Name}), float64(q.met.slowOps.Load()))
	}

	type gauge struct {
		name, typ, help string
		val             func(*servedQueue) float64
	}
	for _, g := range []gauge{
		{"pq_queue_inserts_total", "counter", "Items admitted.", func(q *servedQueue) float64 { ins, _ := q.totals(); return float64(ins) }},
		{"pq_queue_deletes_total", "counter", "Items delivered by delete-min.", func(q *servedQueue) float64 { _, del := q.totals(); return float64(del) }},
		{"pq_queue_empty_deletes_total", "counter", "Delete-mins that found the queue (apparently) empty.", func(q *servedQueue) float64 { return float64(q.emptyDeletes.Load()) }},
		{"pq_queue_shed_total", "counter", "Items shed by admission control or drain (RETRY_AFTER).", func(q *servedQueue) float64 { return float64(q.retryAfter.Load()) }},
		{"pq_queue_errors_total", "counter", "Mutations refused with a durability error.", func(q *servedQueue) float64 { return float64(q.durErrors.Load()) }},
		{"pq_queue_size", "gauge", "Approximate queued items (inserts - deletes).", func(q *servedQueue) float64 { return float64(q.size()) }},
		{"pq_queue_capacity", "gauge", "Admission bound (0 = unbounded).", func(q *servedQueue) float64 { return float64(q.spec.Capacity) }},
		{"pq_queue_draining", "gauge", "1 while the queue sheds inserts for drain.", func(q *servedQueue) float64 { return b2f(q.draining.Load()) }},
		{"pq_queue_relaxed", "gauge", "1 when the backing algorithm relaxes delete-min ordering (Config.AllowRelaxed).", func(q *servedQueue) float64 { return b2f(q.relaxed()) }},
	} {
		p.Header(g.name, g.typ, g.help)
		for _, q := range queues {
			p.Sample(g.name, obs.Labels(map[string]string{"queue": q.spec.Name}), g.val(q))
		}
	}

	// Rank-error families: only relaxed queues emit them. Rank is the
	// number of strictly better items present when an item was popped,
	// measured per shard (see servedQueue.relaxStats).
	type rankPoint struct {
		q  *servedQueue
		rs pq.RelaxStats
	}
	var rankQueues []rankPoint
	for _, q := range queues {
		if rs, ok := q.relaxStats(); ok && rs.Tracked {
			rankQueues = append(rankQueues, rankPoint{q, rs})
		}
	}
	if len(rankQueues) > 0 {
		for _, g := range []struct {
			name, typ, help string
			val             func(pq.RelaxStats) float64
		}{
			{"pq_queue_rank_error_pops_total", "counter", "Pops with rank-error accounting.", func(rs pq.RelaxStats) float64 { return float64(rs.Pops) }},
			{"pq_queue_rank_error_mean", "gauge", "Mean rank error over all pops.", func(rs pq.RelaxStats) float64 { return rs.Mean() }},
			{"pq_queue_rank_error_p50", "gauge", "Median rank error.", func(rs pq.RelaxStats) float64 { return rs.Quantile(0.50) }},
			{"pq_queue_rank_error_p99", "gauge", "99th-percentile rank error.", func(rs pq.RelaxStats) float64 { return rs.Quantile(0.99) }},
			{"pq_queue_rank_error_max", "gauge", "Worst rank error observed.", func(rs pq.RelaxStats) float64 { return float64(rs.RankMax) }},
		} {
			p.Header(g.name, g.typ, g.help)
			for _, rp := range rankQueues {
				p.Sample(g.name, obs.Labels(map[string]string{"queue": rp.q.spec.Name}), g.val(rp.rs))
			}
		}
	}

	if cl := s.cluster.Load(); cl != nil {
		p.Header("pq_cluster_map_version", "gauge", "Version of the active cluster map.")
		p.Sample("pq_cluster_map_version", "", float64(cl.m.Version))
		p.Header("pq_cluster_nodes", "gauge", "Nodes in the active cluster map.")
		p.Sample("pq_cluster_nodes", "", float64(len(cl.m.Nodes)))
		p.Header("pq_cluster_misroutes_total", "counter", "Inserts NACKed with WRONG_NODE (priority owned by another node).")
		p.Sample("pq_cluster_misroutes_total", "", float64(cl.misroutes.Load()))
	}

	// An imbalance across shards is the first sign a workload's priority
	// distribution defeats the range split.
	p.Header("pq_queue_shard_inserts_total", "counter", "Items routed to each priority-range shard.")
	p.Header("pq_queue_shard_deletes_total", "counter", "Items delivered from each priority-range shard.")
	for _, q := range queues {
		for si := range q.shardIn {
			lbl := obs.Labels(map[string]string{"queue": q.spec.Name, "shard": itoa(si)})
			p.Sample("pq_queue_shard_inserts_total", lbl, float64(q.shardIn[si].Load()))
			p.Sample("pq_queue_shard_deletes_total", lbl, float64(q.shardOut[si].Load()))
		}
	}

	// WAL families: only queues with a log attached emit them.
	type walGauge struct {
		name, typ, help string
		val             func(*servedQueue) float64
	}
	walQueues := queues[:0:0]
	for _, q := range queues {
		if q.wal != nil {
			walQueues = append(walQueues, q)
		}
	}
	if len(walQueues) > 0 {
		for _, g := range []walGauge{
			{"pq_wal_appends_total", "counter", "Log records appended.", func(q *servedQueue) float64 { return float64(q.wal.Stats().Appends) }},
			{"pq_wal_fsyncs_total", "counter", "fsync(2) calls (appends/fsyncs is the group-commit factor).", func(q *servedQueue) float64 { return float64(q.wal.Stats().Syncs) }},
			{"pq_wal_snapshots_total", "counter", "Snapshots taken.", func(q *servedQueue) float64 { return float64(q.wal.Stats().Snapshots) }},
			{"pq_wal_bytes", "gauge", "Live log bytes on disk.", func(q *servedQueue) float64 { return float64(q.wal.Stats().WALBytes) }},
			{"pq_wal_segments", "gauge", "Live log segments.", func(q *servedQueue) float64 { return float64(q.wal.Stats().Segments) }},
			{"pq_wal_records_since_snapshot", "gauge", "Replay tail a crash right now would cost.", func(q *servedQueue) float64 { return float64(q.wal.Stats().RecordsSinceSnapshot) }},
			{"pq_wal_last_lsn", "gauge", "Newest appended record.", func(q *servedQueue) float64 { return float64(q.wal.Stats().LastLSN) }},
			{"pq_wal_snapshot_lsn", "gauge", "Newest snapshot-covered record.", func(q *servedQueue) float64 { return float64(q.wal.Stats().SnapshotLSN) }},
			{"pq_wal_poisoned", "gauge", "1 after a write/fsync failure poisoned the log (queue refuses mutations).", func(q *servedQueue) float64 { return b2f(q.wal.Stats().Failed) }},
		} {
			p.Header(g.name, g.typ, g.help)
			for _, q := range walQueues {
				p.Sample(g.name, obs.Labels(map[string]string{"queue": q.spec.Name}), g.val(q))
			}
		}
		p.Header("pq_wal_fsync_duration_seconds", "histogram", "fsync(2) wall time.")
		for _, q := range walQueues {
			if q.walMet == nil {
				continue
			}
			p.Histogram("pq_wal_fsync_duration_seconds",
				obs.Labels(map[string]string{"queue": q.spec.Name}), q.walMet.FsyncNanos.Snapshot(), 1e-9)
		}
		p.Header("pq_wal_group_commit_records", "histogram", "Appended records made durable per fsync.")
		for _, q := range walQueues {
			if q.walMet == nil {
				continue
			}
			p.Histogram("pq_wal_group_commit_records",
				obs.Labels(map[string]string{"queue": q.spec.Name}), q.walMet.CommitRecords.Snapshot(), 1)
		}
	}
	return p.Err()
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// itoa avoids strconv in the scrape path's import set growing beyond
// what's needed (small non-negative ints only).
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
