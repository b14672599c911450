package server

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"pq"
	"pq/internal/obs"
	"pq/internal/wal"
	"pq/internal/wire"
)

// QueueSpec describes one served queue.
type QueueSpec struct {
	// Name addresses the queue in every request frame.
	Name string
	// Algorithm selects the backing implementation (any pq.Algorithm).
	Algorithm pq.Algorithm
	// Priorities is the queue's fixed priority range.
	Priorities int
	// Shards splits the priority range across that many independent
	// sub-queues: shard i serves priorities [i·P/S, (i+1)·P/S).
	// Delete-min scans shards in priority order, so cross-shard
	// ordering is preserved between quiescent points while contention
	// on any single structure drops by ~S. 0 or 1 means unsharded;
	// values above Priorities are clamped.
	Shards int
	// Capacity bounds the number of queued items. Inserts beyond it
	// are shed with RETRY_AFTER instead of queueing unboundedly. An
	// insert reserves its slots with one CAS on the queue's admission
	// word before anything is stored, so the bound holds exactly, in
	// flight too. 0 means unbounded.
	Capacity int64
}

func (spec *QueueSpec) validate() error {
	if spec.Name == "" {
		return fmt.Errorf("server: queue name must be non-empty")
	}
	if len(spec.Name) > wire.MaxName {
		return fmt.Errorf("server: queue name of %d bytes exceeds the %d-byte limit", len(spec.Name), wire.MaxName)
	}
	if spec.Priorities < 1 {
		return fmt.Errorf("server: queue %q: Priorities must be >= 1, got %d", spec.Name, spec.Priorities)
	}
	if spec.Capacity < 0 {
		return fmt.Errorf("server: queue %q: Capacity must be >= 0, got %d", spec.Name, spec.Capacity)
	}
	if spec.Shards < 0 {
		return fmt.Errorf("server: queue %q: Shards must be >= 0, got %d", spec.Name, spec.Shards)
	}
	if spec.Shards == 0 {
		spec.Shards = 1
	}
	if spec.Shards > spec.Priorities {
		spec.Shards = spec.Priorities
	}
	return nil
}

// servedQueue is one registry entry: the sharded backing queues, their
// books, the admission word, and serving counters.
type servedQueue struct {
	spec   QueueSpec
	shards []pq.Queue[[]byte]
	bases  []int // len Shards+1; shard i serves priorities [bases[i], bases[i+1])

	// shardIn/shardOut are the queue's one book: items stored into and
	// delivered from each shard, monotonic. Every count the queue reports
	// (inserts, deletes, size, the cross-shard rank charge) is read from
	// them; in - out is exact at quiescence. A pop books out only when it
	// commits, so a rolled-back pop leaves them untouched.
	shardIn  []atomic.Int64
	shardOut []atomic.Int64

	draining atomic.Bool

	// wal, when non-nil, makes the queue durable (see durable.go).
	// tagLen is the per-value tag prefix: 4 (priority) in memory, 12
	// (priority + durable id) with a WAL. snapEvery triggers automatic
	// snapshots every that many log records.
	wal       *wal.Log
	tagLen    int
	snapEvery int

	// met holds the per-op latency histograms and op counters.
	// walMet, when non-nil, is the instrumentation hook handed to the
	// queue's WAL.
	met    *queueMetrics
	walMet *obs.WALMetrics

	// rank is the cross-shard rank-error estimator, allocated only for
	// relaxed algorithms behind priority-range sharding (see crossRank).
	rank *crossRank

	// Everything above is read by every request and written at most at
	// start-up or on rare events; everything below is written by every
	// request. The gap keeps the two off each other's cache lines, so a
	// counter bumped by one connection does not make another's reads of
	// wal, tagLen or met miss.
	_ [64]byte

	// admitted is the admission word when Capacity > 0: slots reserved
	// by inserts (reserve) and not yet released by a committed pop or a
	// failed journal append. Recovery stores the recovered count, which
	// may exceed Capacity; inserts then shed until pops bring it under.
	admitted     atomic.Int64
	emptyDeletes atomic.Int64
	retryAfter   atomic.Int64
	durErrors    atomic.Int64
}

// crossRank corrects the documented understatement of per-shard rank
// accounting behind sharding: a relaxed shard's RelaxStats only counts
// strictly-better items *within its own priority band*, so when a
// MultiQueue shard spuriously declines under TryLock contention and
// the scan falls through to a later shard, the items still queued in
// earlier (strictly better) bands go uncounted. At each pop served from
// shard s the estimator charges the pop with the books' occupancy
// (in - out) of shards < s — zero whenever the scan found earlier
// shards genuinely empty, so an exact scan contributes nothing. The
// books are read without synchronization, so the correction is an
// estimate (exactly right at quiescence), matching the quiescent
// consistency of the counters it merges into.
type crossRank struct {
	pops atomic.Int64 // pops charged with a cross-shard extra (incl. zero)
	sum  atomic.Int64 // total cross-shard extra over those pops
	max  atomic.Int64 // worst single-pop cross-shard extra
}

// rankRecord charges n pops served from shard with the live occupancy
// of the shards strictly better than it — the definitely-better items a
// per-shard rank cannot see.
func (q *servedQueue) rankRecord(shard, n int) {
	r := q.rank
	if r == nil {
		return
	}
	var extra int64
	for j := 0; j < shard; j++ {
		if held := q.shardIn[j].Load() - q.shardOut[j].Load(); held > 0 {
			extra += held
		}
	}
	r.pops.Add(int64(n))
	if extra == 0 {
		return
	}
	r.sum.Add(extra * int64(n))
	for {
		cur := r.max.Load()
		if extra <= cur || r.max.CompareAndSwap(cur, extra) {
			return
		}
	}
}

func newServedQueue(spec QueueSpec, concurrency int) (*servedQueue, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	q := &servedQueue{spec: spec, tagLen: 4, met: newQueueMetrics(concurrency),
		shardIn: make([]atomic.Int64, spec.Shards), shardOut: make([]atomic.Int64, spec.Shards)}
	q.bases = make([]int, spec.Shards+1)
	for i := 0; i <= spec.Shards; i++ {
		q.bases[i] = i * spec.Priorities / spec.Shards
	}
	for i := 0; i < spec.Shards; i++ {
		sub, err := pq.New[[]byte](spec.Algorithm, q.bases[i+1]-q.bases[i],
			pq.WithConcurrency(concurrency))
		if err != nil {
			return nil, fmt.Errorf("server: queue %q: %w", spec.Name, err)
		}
		q.shards = append(q.shards, sub)
	}
	if pq.IsRelaxed(spec.Algorithm) && spec.Shards > 1 {
		q.rank = new(crossRank)
	}
	return q, nil
}

// shardFor maps a global priority to its shard index.
func (q *servedQueue) shardFor(pri int) int {
	if len(q.shards) == 1 {
		return 0
	}
	// bases is ascending; find the last base <= pri. Hand-rolled binary
	// search: sort.Search takes a closure, which escapes on this path.
	lo, hi := 0, len(q.bases)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if q.bases[mid] <= pri {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// shardRun is n consecutive envelopes of a pop, all taken from shard.
type shardRun struct{ shard, n int }

// shardGroups is insertN's reusable grouping scratch: one item list per
// shard, every list empty between uses. One pool serves all queues: a
// scratch grows to the widest queue that used it.
type shardGroups struct{ by [][]pq.Item[[]byte] }

var groupsPool sync.Pool // *shardGroups

// tag builds the envelope a shard stores for one item: the 4-byte
// global priority (so a pop can report the priority it served — the
// native queues only return the value), the 8-byte durable id on a
// queue with a WAL, then the value. The envelope comes from the wire
// buffer pool — value may alias a request payload that is recycled the
// moment the request returns, so the copy here is load-bearing.
func (q *servedQueue) tag(pri uint32, id uint64, value []byte) []byte {
	env := wire.GetBuf(q.tagLen + len(value))
	env = binary.BigEndian.AppendUint32(env, pri)
	if q.tagLen == durTagLen {
		env = binary.BigEndian.AppendUint64(env, id)
	}
	return append(env, value...)
}

// insertN admits and stores items, whose priorities the frame handler
// has already validated, and reports how many were accepted; the rest
// were shed. It is the one insert path — a single INSERT is n = 1 — run
// as one pipeline: drain check → admit → journal → store → commit.
//
// Admit reserves slots with one CAS on the admission word, so the
// accepted items are a prefix. Journal (queues with a WAL only) stages
// that prefix as one record before anything is stored and returns its
// LSN, for the caller to wal.Wait on before acknowledging. If the stage
// is refused the reservation is released and the queue is exactly as
// before the call. No path takes a lock of the server's own, and an
// in-memory queue allocates nothing for n = 1.
func (q *servedQueue) insertN(items []wire.Item) (n int, lsn uint64, err error) {
	n = len(items)
	if n == 0 {
		return 0, 0, nil
	}
	if q.draining.Load() {
		q.retryAfter.Add(int64(n))
		return 0, 0, nil
	}
	if q.spec.Capacity > 0 {
		granted := q.reserve(n)
		if granted < n {
			q.retryAfter.Add(int64(n - granted))
		}
		if n = granted; n == 0 {
			return 0, 0, nil
		}
	}
	var first uint64 // durable id of items[0]; the rest follow in order
	if q.wal != nil {
		first = q.wal.AllocIDs(n)
		var buf [8]wal.Item
		recs := buf[:0]
		for i, it := range items[:n] {
			recs = append(recs, wal.Item{ID: first + uint64(i), Pri: it.Pri, Value: it.Value})
		}
		if lsn, err = q.wal.StageInsert(recs); err != nil {
			q.release(n)
			return 0, 0, err
		}
	}
	if n == 1 {
		it := items[0]
		s := q.shardFor(int(it.Pri))
		q.shards[s].Insert(int(it.Pri)-q.bases[s], q.tag(it.Pri, first, it.Value))
		q.shardIn[s].Add(1)
	} else {
		// Each shard receives its share through the native InsertBatch.
		g, _ := groupsPool.Get().(*shardGroups)
		if g == nil {
			g = new(shardGroups)
		}
		if len(g.by) < len(q.shards) {
			g.by = make([][]pq.Item[[]byte], len(q.shards))
		}
		for i, it := range items[:n] {
			s := q.shardFor(int(it.Pri))
			g.by[s] = append(g.by[s], pq.Item[[]byte]{
				Pri: int(it.Pri) - q.bases[s], Val: q.tag(it.Pri, first+uint64(i), it.Value)})
		}
		for s, batch := range g.by {
			if len(batch) == 0 {
				continue
			}
			pq.InsertBatch(q.shards[s], batch)
			q.shardIn[s].Add(int64(len(batch)))
			clear(batch)
			g.by[s] = batch[:0]
		}
		groupsPool.Put(g)
	}
	q.maybeSnapshot()
	return n, lsn, nil
}

// reserve takes up to n admission slots with one CAS and reports how
// many it took: the prefix of the batch that fits under Capacity.
func (q *servedQueue) reserve(n int) int {
	for {
		cur := q.admitted.Load()
		take := min(int64(n), q.spec.Capacity-cur)
		if take <= 0 {
			return 0
		}
		if q.admitted.CompareAndSwap(cur, cur+take) {
			return int(take)
		}
	}
}

// release frees n admission slots; a no-op on an unbounded queue.
func (q *servedQueue) release(n int) {
	if q.spec.Capacity > 0 {
		q.admitted.Add(-int64(n))
	}
}

// putBackN returns entries taken from a shard, listed in the order they
// were popped, to that shard in one native batch. It pushes them in
// reverse, so a LIFO bin or heap gives equal priorities back in the
// order it first did. The batch is a copy, so got (popN's stack buffer
// included) never escapes. It touches nothing but the shard, so every
// entry goes back exactly once — shards have no capacity bound, so it
// cannot fail or be shed — and the books never saw it leave.
func (q *servedQueue) putBackN(shard int, got []pq.Item[[]byte]) {
	batch := make([]pq.Item[[]byte], len(got))
	for i, it := range got {
		batch[len(got)-1-i] = pq.Item[[]byte]{Pri: envPri(it.Val) - q.bases[shard], Val: it.Val}
	}
	pq.InsertBatch(q.shards[shard], batch)
}

// popN removes up to max of the most urgent items whose combined TItems
// encoding stays within budget payload bytes, appending their raw
// envelopes (layout: see tag) to envs. The envelopes are pooled
// buffers whose ownership transfers to the caller, which must
// wire.PutBuf each once its bytes are no longer referenced; pass a
// recycled scratch slice to keep the path allocation-free. It is the
// one pop path — a single DELETE_MIN is max = 1 — run as one pipeline:
// take → journal → commit.
//
// Take scans the shards in priority order. An item that would overflow
// the budget goes back to its shard un-popped, so a response frame
// never exceeds the wire limit and no popped item is ever dropped; any
// single admitted item fits (values are capped at wire.MaxValue), so
// the first pop is always kept and progress is guaranteed. A short
// result means the queue ran dry or a shard declined under contention;
// the client just asks again. Journal (queues with a WAL only) stages
// the durable ids of exactly the items taken as one record and returns
// its LSN for the caller to wal.Wait on; if the stage is refused everything taken goes back
// and the queue is exactly as before the call. Commit books the pops out
// of their shards, charges the cross-shard rank and frees the admission
// slots, so a rolled-back pop leaves no trace.
func (q *servedQueue) popN(max, budget int, envs [][]byte) (_ [][]byte, lsn uint64, err error) {
	n0 := len(envs)
	bytes := 4 // item-count prefix
	cut := false
	var one [1]pq.Item[[]byte]
	// runs notes how many items each shard gave, for the commit stage:
	// reading it back from the envelopes' tags would pull every envelope
	// into this core's cache before the response encoder needs it.
	var runBuf [4]shardRun
	runs := runBuf[:0]
	for si, sub := range q.shards {
		want := max - (len(envs) - n0)
		if want <= 0 {
			break
		}
		var got []pq.Item[[]byte]
		if want > 1 {
			got = pq.DeleteMinBatch(sub, want)
		} else if v, ok := sub.DeleteMin(); ok {
			one[0].Val = v
			got = one[:]
		}
		if len(got) == 0 {
			continue // shard dry: move to the next priority band
		}
		kept := 0
		for _, it := range got {
			// Encoded size: pri(4) + bloblen(4) + value bytes.
			sz := 8 + len(it.Val) - q.tagLen
			if len(envs) > n0 && bytes+sz > budget {
				break
			}
			bytes += sz
			envs = append(envs, it.Val)
			kept++
		}
		if kept > 0 {
			runs = append(runs, shardRun{si, kept})
		}
		if kept < len(got) {
			// Budget exhausted: the remainder goes back exactly once.
			q.putBackN(si, got[kept:])
			cut = true
			break
		}
	}
	taken := envs[n0:]
	if len(taken) == 0 {
		q.emptyDeletes.Add(1)
		return envs, 0, nil
	}
	if q.wal != nil {
		var buf [8]uint64
		ids := buf[:0]
		for _, env := range taken {
			ids = append(ids, durID(env))
		}
		if lsn, err = q.wal.StageDelete(ids); err != nil {
			back := make([]pq.Item[[]byte], len(taken))
			for i, env := range taken {
				back[i].Val = env
			}
			for _, r := range runs {
				q.putBackN(r.shard, back[:r.n])
				back = back[r.n:]
			}
			clear(taken)
			return envs[:n0], 0, err
		}
	}
	// runs ascend by shard, so each run's rank charge already sees the
	// earlier runs booked out, as the shards themselves do.
	for _, r := range runs {
		q.shardOut[r.shard].Add(int64(r.n))
		q.rankRecord(r.shard, r.n)
	}
	q.release(len(taken))
	if len(taken) < max && !cut {
		q.emptyDeletes.Add(1)
	}
	q.maybeSnapshot()
	return envs, lsn, nil
}

// stats snapshots the serving counters.
func (q *servedQueue) stats() wire.QueueStats {
	ins, del := q.totals()
	st := wire.QueueStats{
		Queue:        q.spec.Name,
		Algorithm:    string(q.spec.Algorithm),
		Priorities:   q.spec.Priorities,
		Shards:       q.spec.Shards,
		Capacity:     q.spec.Capacity,
		Inserts:      ins,
		Deletes:      del,
		EmptyDeletes: q.emptyDeletes.Load(),
		RetryAfter:   q.retryAfter.Load(),
		Size:         ins - del,
		Draining:     q.draining.Load(),
		StatsVersion: wire.StatsVersion,
	}
	st.Latency = q.latencyStats()
	if q.wal != nil {
		ws := q.wal.Stats()
		st.Durability = &wire.DurabilityStats{
			FsyncPolicy:          ws.Policy,
			LastLSN:              ws.LastLSN,
			SnapshotLSN:          ws.SnapshotLSN,
			Segments:             ws.Segments,
			WALBytes:             ws.WALBytes,
			Appends:              ws.Appends,
			Fsyncs:               ws.Syncs,
			Snapshots:            ws.Snapshots,
			RecordsSinceSnapshot: ws.RecordsSinceSnapshot,
			RecoveredItems:       ws.RecoveredItems,
			ReplayedRecords:      ws.ReplayedRecords,
			TornTail:             ws.TornTail,
		}
		if q.walMet != nil {
			fd := distFromHist(q.walMet.FsyncNanos.Snapshot())
			gc := distFromHist(q.walMet.CommitRecords.Snapshot())
			st.Durability.FsyncLatency = &fd
			st.Durability.GroupCommit = &gc
		}
	}
	return st
}

// peek returns up to max of the most urgent items without consuming
// them: each shard is batch-popped and immediately restored. It peeks
// live, durable or not, so a concurrent delete-min can briefly see the
// queue empty — acceptable for the debug endpoint this serves.
func (q *servedQueue) peek(max int) []wire.Item {
	if max <= 0 {
		return nil
	}
	var out []wire.Item
	for si, sub := range q.shards {
		want := max - len(out)
		if want <= 0 {
			break
		}
		got := pq.DeleteMinBatch(sub, want)
		if len(got) == 0 {
			continue
		}
		for _, it := range got {
			v := it.Val
			// Copy: the envelope goes straight back into the live queue
			// and may be popped, delivered, and recycled while the debug
			// snapshot is still being rendered.
			out = append(out, wire.Item{
				Pri:   binary.BigEndian.Uint32(v),
				Value: append([]byte(nil), v[q.tagLen:]...),
			})
		}
		q.putBackN(si, got)
	}
	return out
}

// totals sums the books: items ever stored and ever delivered.
func (q *servedQueue) totals() (ins, del int64) {
	for s := range q.shardIn {
		ins += q.shardIn[s].Load()
		del += q.shardOut[s].Load()
	}
	return ins, del
}

// size is the queued-item count, exact at quiescence.
func (q *servedQueue) size() int64 {
	ins, del := q.totals()
	return ins - del
}

// relaxed reports whether the backing algorithm trades exact delete-min
// order for scalability.
func (q *servedQueue) relaxed() bool { return pq.IsRelaxed(q.spec.Algorithm) }

// relaxStats merges the rank-error accounting of every shard and then
// applies the cross-shard estimator (crossRank): per-shard ranks only
// see their own priority band, so with Shards > 1 the merged RankSum
// and RankMax are corrected by the estimator's better-band occupancy
// charges. The per-rank Counts histogram (and so the quantiles) stays
// within-shard — a pop's within-shard rank and its cross-shard extra
// cannot be aligned after the fact — which the mean and max no longer
// suffer from. ok is false for exact algorithms, which carry no such
// accounting.
func (q *servedQueue) relaxStats() (pq.RelaxStats, bool) {
	var total pq.RelaxStats
	found := false
	for _, sub := range q.shards {
		if rs, ok := pq.RelaxStatsOf(sub); ok {
			total = total.Merge(rs)
			found = true
		}
	}
	if found && total.Tracked && q.rank != nil {
		total.RankSum += q.rank.sum.Load()
		// The true worst pop is its within-shard rank plus its
		// cross-shard extra; those aren't aligned per pop, so take the
		// larger of the two maxima — still a lower bound on the true
		// max, but no longer blind to cross-shard error.
		if m := q.rank.max.Load(); m > total.RankMax {
			total.RankMax = m
		}
	}
	return total, found
}
