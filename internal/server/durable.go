package server

import (
	"encoding/binary"
	"errors"
	"fmt"

	"pq"
	"pq/internal/wal"
)

// Durable serving: when a queue has a WAL attached, every mutation is
// made a logical log record *before* it is acknowledged (append-before-
// ack), and pops log the durable ids of the exact items that left the
// queue — not "a delete happened" — so replay is independent of the
// quiescently consistent order in which overlapping operations really
// hit the shards.
//
// Tagged-value layout: in-memory queues store pri(4)+value; durable
// queues store pri(4)+id(8)+value (servedQueue.tag). The priority
// prefix stays first so putBackN and shardFor work on either layout.
//
// Journal failures: insertN/popN only stage their record, and the
// connection's countingWriter waits for it before the response leaves.
// A refused stage (closed or poisoned log) rolls the mutation back, and
// the request answers "durability: …". A failed round poisons the log
// (wal.ErrPoisoned) — its bytes may still reach disk via the page cache,
// so no rollback could be trusted to match replay — and closes each
// waiting connection with its unanswered responses discarded. Items the
// failed round stored stay in memory but can never be delivered: every
// later stage is refused, so every pop that takes them rolls back, and
// no client observes state that replay could contradict.
//
// Snapshots never read the queue: the log already holds every mutation
// as a logical record, so the WAL folds its own sealed segments into a
// snapshot (wal.Log.Fold) while the queue serves on. insertN and popN
// therefore take no lock of the server's own.

// durTagLen is the tag prefix of a durable queue's stored values.
const durTagLen = 12

// attachWAL wires a recovered log into a freshly built queue: the
// recovered live-item multiset is bulk-loaded into the shards, booked
// into each shard's in-count, and takes admission slots, since those
// items occupy capacity; subsequent operations journal to the log. Must
// be called before the queue serves traffic.
func (q *servedQueue) attachWAL(l *wal.Log, rec wal.Recovery, snapEvery int) error {
	q.wal = l
	q.tagLen = durTagLen
	q.snapEvery = snapEvery
	byShard := make(map[int][]pq.Item[[]byte])
	for _, it := range rec.Items {
		pri := int(it.Pri)
		if pri < 0 || pri >= q.spec.Priorities {
			return fmt.Errorf("server: queue %q: recovered item id=%d priority %d outside [0,%d) — was the queue reconfigured?",
				q.spec.Name, it.ID, pri, q.spec.Priorities)
		}
		s := q.shardFor(pri)
		byShard[s] = append(byShard[s], pq.Item[[]byte]{Pri: pri - q.bases[s], Val: q.tag(it.Pri, it.ID, it.Value)})
	}
	for s, batch := range byShard {
		pq.InsertBatch(q.shards[s], batch)
		q.shardIn[s].Add(int64(len(batch)))
	}
	if q.spec.Capacity > 0 {
		// May exceed a since-lowered Capacity: inserts then shed until
		// pops bring the word back under the bound.
		q.admitted.Store(int64(len(rec.Items)))
	}
	return nil
}

// envPri and durID read an envelope's tag (layout: servedQueue.tag).
func envPri(env []byte) int   { return int(binary.BigEndian.Uint32(env)) }
func durID(env []byte) uint64 { return binary.BigEndian.Uint64(env[4:12]) }

// maybeSnapshot starts a background fold of the log (wal.Log.StartFold)
// once it has grown by snapEvery records since the last snapshot's cut.
// A fold reads only the log, so the queue never stops for it.
func (q *servedQueue) maybeSnapshot() {
	if q.snapEvery > 0 && q.wal.Stats().RecordsSinceSnapshot >= uint64(q.snapEvery) {
		q.wal.StartFold()
	}
}

// sealWAL folds the log one last time and closes it — the graceful-
// shutdown path. After it, a restart replays zero log records: boot is
// pure snapshot load. The fold waits out a background one in flight
// (which covers fewer records) rather than skipping its own.
func (q *servedQueue) sealWAL() error {
	if q.wal == nil {
		return nil
	}
	return errors.Join(q.wal.Fold(), q.wal.Close())
}
