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
	// are shed with RETRY_AFTER instead of queueing unboundedly; the
	// bound is enforced by the paper's bounded fetch-and-decrement
	// counter used as an admission semaphore, so it is approximate
	// while operations are in flight. 0 means unbounded.
	Capacity int64
}

func (spec *QueueSpec) validate() error {
	if spec.Name == "" {
		return fmt.Errorf("server: queue name must be non-empty")
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

// servedQueue is one registry entry: the sharded backing queues, the
// admission counter, and serving counters.
type servedQueue struct {
	spec   QueueSpec
	shards []pq.Queue[[]byte]
	bases  []int // len Shards+1; shard i serves priorities [bases[i], bases[i+1])

	// admit is the bounded fetch-and-decrement counter of the paper's
	// Section 3.3 used as an admission semaphore: a multi-unit BFaI on
	// insert (a return equal to Capacity means "full", shed), a
	// multi-unit FaD on successful delete-min. nil when Capacity is 0.
	// admitOverflow counts recovered items beyond Capacity that the
	// clamped counter could not book (attachWAL); pops burn this debt
	// before freeing counter slots.
	admit         *pq.Counter
	admitOverflow atomic.Int64
	draining      atomic.Bool

	// wal, when non-nil, makes the queue durable (see durable.go).
	// tagLen is the per-value tag prefix: 4 (priority) in memory, 12
	// (priority + durable id) with a WAL. snapEvery triggers automatic
	// snapshots every that many log records.
	wal       *wal.Log
	tagLen    int
	snapEvery int

	// met holds the per-op latency histograms and shard counters.
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

	// durMu lets snapshots quiesce the journal stage of insertN/popN.
	durMu      sync.RWMutex
	snapActive atomic.Bool

	inserts      atomic.Int64
	deletes      atomic.Int64
	emptyDeletes atomic.Int64
	retryAfter   atomic.Int64
	durErrors    atomic.Int64
}

// crossRank corrects the documented understatement of per-shard rank
// accounting behind sharding: a relaxed shard's RelaxStats only counts
// strictly-better items *within its own priority band*, so when a
// MultiQueue shard spuriously declines under TryLock contention and
// the scan falls through to a later shard, the items still queued in
// earlier (strictly better) bands go uncounted. The estimator tracks
// approximate live occupancy per shard and, at each pop served from
// shard s, charges the pop with the occupancy of shards < s — zero
// whenever the scan found earlier shards genuinely empty, so an exact
// scan contributes nothing. Occupancy is maintained with relaxed
// atomics and read without synchronization, so the correction is an
// estimate (exactly right at quiescence), matching the quiescent
// consistency of the counters it merges into.
type crossRank struct {
	occ  []atomic.Int64 // live items per shard (approximate in flight)
	pops atomic.Int64   // pops charged with a cross-shard extra (incl. zero)
	sum  atomic.Int64   // total cross-shard extra over those pops
	max  atomic.Int64   // worst single-pop cross-shard extra
}

// occAdd books n items into shard's occupancy (negative n removes).
func (q *servedQueue) occAdd(shard, n int) {
	if q.rank != nil && n != 0 {
		q.rank.occ[shard].Add(int64(n))
	}
}

// extraBelow sums the live occupancy of shards strictly better than
// shard — the definitely-better items a per-shard rank cannot see.
func (r *crossRank) extraBelow(shard int) int64 {
	var x int64
	for j := 0; j < shard; j++ {
		if n := r.occ[j].Load(); n > 0 {
			x += n
		}
	}
	return x
}

// rankRecord charges n pops served from shard with the current
// better-band occupancy. Occupancy itself is booked where items enter
// and leave the shards (occAdd).
func (q *servedQueue) rankRecord(shard, n int) {
	r := q.rank
	if r == nil {
		return
	}
	extra := r.extraBelow(shard)
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
	q := &servedQueue{spec: spec, tagLen: 4, met: newQueueMetrics(concurrency, spec.Shards)}
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
	if spec.Capacity > 0 {
		q.admit = pq.NewCounterBounds(0, 0, spec.Capacity,
			pq.WithConcurrency(concurrency))
	}
	if pq.IsRelaxed(spec.Algorithm) && spec.Shards > 1 {
		q.rank = &crossRank{occ: make([]atomic.Int64, spec.Shards)}
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
// Admit reserves slots with one multi-unit bounded increment, so the
// accepted items are a prefix. Journal (queues with a WAL only) logs
// that prefix as one record before anything is stored; the read-lock
// spans the append and the shard inserts so a snapshot (which takes the
// write lock) never observes a logged-but-unstored or
// stored-but-unlogged item. If the append fails the reservation is
// released and the queue is exactly as before the call. In-memory
// queues take no lock and allocate nothing for n = 1.
func (q *servedQueue) insertN(items []wire.Item) (int, error) {
	n := len(items)
	if n == 0 {
		return 0, nil
	}
	if q.draining.Load() {
		q.retryAfter.Add(int64(n))
		return 0, nil
	}
	if q.admit != nil {
		// AddN clamps at Capacity and returns the previous value, so the
		// grant is exactly the slots the counter actually took.
		granted := int(min(max(q.spec.Capacity-q.admit.AddN(int64(n)), 0), int64(n)))
		if granted < n {
			q.retryAfter.Add(int64(n - granted))
		}
		if n = granted; n == 0 {
			return 0, nil
		}
	}
	var first uint64 // durable id of items[0]; the rest follow in order
	if q.wal != nil {
		q.durMu.RLock()
		defer q.durMu.RUnlock()
		first = q.wal.AllocIDs(n)
		var buf [8]wal.Item
		recs := buf[:0]
		for i, it := range items[:n] {
			recs = append(recs, wal.Item{ID: first + uint64(i), Pri: it.Pri, Value: it.Value})
		}
		if err := q.wal.AppendInsert(recs); err != nil {
			if q.admit != nil {
				q.admit.SubN(int64(n))
			}
			return 0, err
		}
	}
	if n == 1 {
		it := items[0]
		s := q.shardFor(int(it.Pri))
		q.shards[s].Insert(int(it.Pri)-q.bases[s], q.tag(it.Pri, first, it.Value))
		q.met.shardIns[s].Add(1)
		q.occAdd(s, 1)
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
			q.met.shardIns[s].Add(int64(len(batch)))
			q.occAdd(s, len(batch))
			clear(batch)
			g.by[s] = batch[:0]
		}
		groupsPool.Put(g)
	}
	q.inserts.Add(int64(n))
	q.maybeSnapshot()
	return n, nil
}

// consumeOverflow takes up to n units of the recovered-beyond-capacity
// debt, returning how many it took. While the debt is positive the
// admission counter stays pinned at Capacity, so inserts keep shedding
// until real occupancy is back under the bound.
func (q *servedQueue) consumeOverflow(n int64) int64 {
	for {
		cur := q.admitOverflow.Load()
		if cur <= 0 {
			return 0
		}
		take := n
		if take > cur {
			take = cur
		}
		if q.admitOverflow.CompareAndSwap(cur, cur-take) {
			return take
		}
	}
}

// putBackN returns entries taken from a shard to that shard in one
// native batch. It touches nothing but the shard (and its occupancy
// estimate), so every entry goes back exactly once — shards have no
// capacity bound, so it cannot fail or be shed.
func (q *servedQueue) putBackN(shard int, got []pq.Item[[]byte]) {
	batch := make([]pq.Item[[]byte], len(got))
	for i, it := range got {
		batch[i] = pq.Item[[]byte]{Pri: envPri(it.Val) - q.bases[shard], Val: it.Val}
	}
	pq.InsertBatch(q.shards[shard], batch)
	q.occAdd(shard, len(got))
}

// popCommitN records n pops whose items will be delivered: one
// multi-unit decrement frees their admission slots and counts them.
func (q *servedQueue) popCommitN(n int) {
	if q.admit != nil {
		if rem := int64(n) - q.consumeOverflow(int64(n)); rem > 0 {
			q.admit.SubN(rem)
		}
	}
	q.deletes.Add(int64(n))
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
// the client just asks again. Journal (queues with a WAL only) logs
// the durable ids of exactly the items taken as one record, under the
// snapshot read-lock like insertN; if the append fails everything taken
// goes back and the queue is exactly as before the call — and since the
// failure poisoned the log, no later pop can deliver those items.
// Commit frees the admission slots and charges the serving counters,
// cross-shard rank included, so a rolled-back pop leaves no trace.
func (q *servedQueue) popN(max, budget int, envs [][]byte) ([][]byte, error) {
	if q.wal != nil {
		q.durMu.RLock()
		defer q.durMu.RUnlock()
	}
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
		q.occAdd(si, -len(got)) // putBackN re-books anything returned
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
		return envs, nil
	}
	if q.wal != nil {
		var buf [8]uint64
		ids := buf[:0]
		for _, env := range taken {
			ids = append(ids, durID(env))
		}
		if err := q.wal.AppendDelete(ids); err != nil {
			for _, env := range taken {
				q.putBackN(q.shardFor(envPri(env)), []pq.Item[[]byte]{{Val: env}})
			}
			clear(taken)
			return envs[:n0], err
		}
	}
	for _, r := range runs {
		q.met.shardDel[r.shard].Add(int64(r.n))
		q.rankRecord(r.shard, r.n)
	}
	q.popCommitN(len(taken))
	if len(taken) < max && !cut {
		q.emptyDeletes.Add(1)
	}
	q.maybeSnapshot()
	return envs, nil
}

// stats snapshots the serving counters.
func (q *servedQueue) stats() wire.QueueStats {
	ins, del := q.inserts.Load(), q.deletes.Load()
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
// them: each shard is batch-popped and immediately restored. Durable
// queues are quiesced under the snapshot lock for an exact view;
// in-memory queues peek live, so a concurrent delete-min can briefly
// see the queue empty — acceptable for the debug endpoint this serves.
func (q *servedQueue) peek(max int) []wire.Item {
	if max <= 0 {
		return nil
	}
	if q.wal != nil {
		q.durMu.Lock()
		defer q.durMu.Unlock()
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
		q.occAdd(si, -len(got)) // putBackN below books them back in
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

// size is the approximate queued-item count.
func (q *servedQueue) size() int64 { return q.inserts.Load() - q.deletes.Load() }

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
