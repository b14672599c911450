// Package wal is pqd's durability subsystem: a segmented, CRC32C-framed
// append-only log of the service's logical queue operations
// (INSERT/INSERT_BATCH/DELETE_MIN/DELETE_MIN_BATCH) plus periodic
// snapshots of the live-item set, so a crashed daemon reconstructs any
// algorithm's queue on boot from snapshot + log tail.
//
// The log records logical promises, not physical structure: an insert
// record carries a durable item id with the priority and value, a
// delete record carries the ids that left the queue. Replay therefore
// maintains a multiset keyed by id, which makes recovery independent of
// the backing algorithm and of the (quiescently consistent) order in
// which overlapping operations really hit the shards.
//
// Commit durability is governed by a SyncPolicy knob:
//
//   - SyncAlways: a record is committed once an fsync covers it.
//     Concurrent commits share fsyncs — group commit — so the cost
//     amortizes under load.
//   - SyncInterval: a record is committed once written to the OS; a
//     timer fsyncs every Interval when anything is unsynced. Bounded
//     post-crash data loss.
//   - SyncNever: the OS decides. Cheapest, weakest.
//
// Appending is stage + Wait: StageInsert/StageDelete frame a record into
// a shared buffer under the log's mutex and return its LSN at once, and
// Wait(lsn) returns once that record is committed. A caller can stage
// many records and wait once, for the last, before acknowledging any.
//
// Group commit is leader/follower combining, with no goroutine of its
// own: whichever waiter finds no write in flight leads the next round —
// it takes the whole buffer, writes it with one write(2) (and fsyncs
// under SyncAlways) for everyone staged behind it, then wakes them and
// steps down. Records reach the file in LSN order. The SyncInterval
// timer carries any buffered tail with a normal round, then fsyncs
// outside the rounds, so appends keep writing while the disk flushes.
//
// A snapshot folds the log, not the queue: Fold cuts the log at a
// rotation and, outside every lock, replays the sealed segments onto the
// previous snapshot, so appends never wait for one. One snapshot runs at
// a time. Segments rotate at SegmentBytes and are deleted once wholly
// covered by a retained snapshot; torn tails (truncated final record, bit
// flips, zero fill) are detected by the per-record CRC and replay stops
// cleanly at the last valid record.
package wal

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pq/internal/obs"
)

// SyncPolicy selects when appended records reach stable storage.
type SyncPolicy uint8

const (
	// SyncAlways group-commits: every append waits for an fsync.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a timer; appends only wait for write(2).
	SyncInterval
	// SyncNever leaves flushing entirely to the OS.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", uint8(p))
}

// ParseSyncPolicy parses the -fsync flag values.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or never)", s)
}

// Options configures Open.
type Options struct {
	// Dir holds the segments and snapshots of one queue's log.
	Dir string
	// Policy is the fsync discipline. Default SyncAlways.
	Policy SyncPolicy
	// Interval is the SyncInterval flush period. Default 10ms.
	Interval time.Duration
	// SegmentBytes rotates the active segment past this size.
	// Default 16 MiB.
	SegmentBytes int64
	// Logger receives recovery, retention and poison diagnostics, with
	// the segment, offset and lsn as attributes; nil discards.
	Logger *slog.Logger
	// Metrics, when non-nil, receives fsync wall time and group-commit
	// batch sizes from whichever goroutine fsyncs (fsyncs never overlap;
	// see obs.WALMetrics). The recording path is
	// allocation-free; nil disables it.
	Metrics *obs.WALMetrics
}

func (o *Options) normalize() error {
	if o.Dir == "" {
		return errors.New("wal: Options.Dir is required")
	}
	if o.Interval <= 0 {
		o.Interval = 10 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 16 << 20
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.DiscardHandler)
	}
	return nil
}

// Recovery reports what Open reconstructed.
type Recovery struct {
	// Items is the live multiset: every acked insert not yet deleted.
	Items []Item
	// SnapshotLSN is the log position the loaded snapshot covered
	// (0 when booting from the log alone).
	SnapshotLSN uint64
	// Replayed is how many log records were applied on top of the
	// snapshot; a boot after a graceful shutdown replays zero.
	Replayed int
	// Torn reports that tail damage (truncated record, bit flip, zero
	// fill) was found and replay stopped at the last valid record.
	Torn bool
}

// Stats is a point-in-time summary for STATS plumbing.
type Stats struct {
	Policy               string
	LastLSN              uint64
	SnapshotLSN          uint64
	Segments             int
	WALBytes             int64
	Appends              uint64
	Syncs                uint64
	Snapshots            uint64
	RecordsSinceSnapshot uint64
	RecoveredItems       int
	ReplayedRecords      int
	TornTail             bool
	// Failed reports a poisoned log: a write or fsync error occurred
	// and every subsequent append is refused (see ErrPoisoned).
	Failed bool
}

// ErrClosed reports appends after Close.
var ErrClosed = errors.New("wal: closed")

// ErrPoisoned reports operations on a log that has seen a write or
// fsync failure. Once a record's bytes may have reached the OS but
// their durability is unknown, an in-memory rollback can no longer be
// trusted to match post-crash replay, so the log refuses every
// subsequent append and snapshot — the standard WAL discipline for
// fsync-failure ambiguity.
var ErrPoisoned = errors.New("wal: log poisoned by write/fsync failure")

// segment is one live log file.
type segment struct {
	firstLSN uint64
	path     string
	bytes    int64
}

// segFormat names the segment by the LSN of its first record; lexical
// order equals LSN order.
const segFormat = "wal-%016x.seg"

func segName(firstLSN uint64) string { return fmt.Sprintf(segFormat, firstLSN) }

// file is what the log needs of a segment file: *os.File, or a wrapper
// a test uses to inject write and fsync failures.
type file interface {
	Write([]byte) (int, error)
	Sync() error
	Close() error
}

// Log is one queue's write-ahead log. All methods are safe for
// concurrent use; records are group-committed by leader/follower
// combining (see the package comment).
type Log struct {
	opts   Options
	nextID atomic.Uint64

	mu       sync.Mutex
	cond     sync.Cond // on mu; broadcast at the end of every round
	buf      []byte    // framed records no round has taken yet
	spare    []byte    // the last round's batch, reused as the next buf
	nextLSN  uint64
	done     uint64 // last LSN a round carried to the OS (and disk, per policy)
	busy     bool   // a round is in flight; its leader owns the fields below
	closed   bool
	failed   error       // sticky ErrPoisoned-wrapped write/fsync failure
	timer    *time.Timer // SyncInterval flush; nil under other policies
	snapping atomic.Bool // the snapshot single flight; cleared under mu with a broadcast

	// Owned by the round's leader, or by the holder of mu while no
	// round is in flight; f is swapped or closed only under fileMu too,
	// which every fsync holds (the SyncInterval one outside the rounds).
	f         file
	segs      []segment
	fileMu    sync.Mutex
	sinceSync atomic.Uint64 // records written since the last fsync began (group-commit size)

	poisoned atomic.Bool // published copy of failed != nil, for Stats

	// Published for Stats.
	lastLSN   atomic.Uint64
	snapLSN   atomic.Uint64
	walBytes  atomic.Int64
	segCount  atomic.Int64
	appends   atomic.Uint64
	syncs     atomic.Uint64
	snapshots atomic.Uint64
	sinceSnap atomic.Uint64

	recoveredItems int
	replayed       int
	torn           bool
}

// Open recovers the log in opts.Dir (creating it if absent) and, under
// SyncInterval, arms the flush timer. The returned Recovery carries the
// reconstructed live-item multiset for the caller to load into its
// queue.
func Open(opts Options) (*Log, Recovery, error) {
	if err := opts.normalize(); err != nil {
		return nil, Recovery{}, err
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, Recovery{}, err
	}
	// A crash mid-snapshot leaves a .tmp file; it was never linked into
	// the recovery chain, so drop it.
	if tmps, err := filepath.Glob(filepath.Join(opts.Dir, "*.tmp")); err == nil {
		for _, t := range tmps {
			os.Remove(t)
		}
	}

	snapLSN, nextID, live := loadNewestSnapshot(opts.Dir, opts.Logger)

	l := &Log{opts: opts}
	l.cond.L = &l.mu
	l.snapLSN.Store(snapLSN)

	rec, err := l.replaySegments(snapLSN, live, &nextID)
	if err != nil {
		return nil, Recovery{}, err
	}
	rec.SnapshotLSN = snapLSN

	rec.Items = sortedItems(live)
	l.nextID.Store(nextID)
	l.recoveredItems = len(rec.Items)
	l.replayed = rec.Replayed
	l.torn = rec.Torn

	if opts.Policy == SyncInterval {
		l.mu.Lock() // tick reads l.timer under mu, possibly before this returns
		l.timer = time.AfterFunc(opts.Interval, l.tick)
		l.mu.Unlock()
	}
	return l, rec, nil
}

// replaySegments scans the on-disk segments, applies records beyond
// snapLSN to live, truncates tail damage, and leaves the log positioned
// for appending. Called once from Open, before the log is shared.
func (l *Log) replaySegments(snapLSN uint64, live map[uint64]Item, nextID *uint64) (Recovery, error) {
	var rec Recovery
	firsts, err := listLSNs(l.opts.Dir, segFormat)
	if err != nil {
		return rec, err
	}
	segs := make([]segment, len(firsts))
	for i, first := range firsts {
		segs[i] = segment{firstLSN: first, path: filepath.Join(l.opts.Dir, segName(first))}
	}

	lastLSN := snapLSN
	var kept []segment
	endLSN := snapLSN // record-chain end of the last kept segment
	for i := 0; i < len(segs); i++ {
		s := segs[i]
		if s.firstLSN > endLSN+1 && s.firstLSN > snapLSN+1 {
			// The segment neither chains from its predecessor nor from
			// the snapshot: the records in between are gone, so it and
			// everything after it are unreachable.
			rec.Torn = true
			for _, orphan := range segs[i:] {
				l.opts.Logger.Warn("wal: dropping segment: lsn gap",
					"segment", filepath.Base(orphan.path), "lsn", endLSN)
				os.Remove(orphan.path)
			}
			break
		}
		expect := s.firstLSN
		valid, damaged, err := scanFile(s.path, func(r record) error {
			if r.lsn != expect {
				// An LSN gap means the file does not line up with its
				// name or its predecessor — treat like tail damage.
				return errTruncated
			}
			expect++
			if r.lsn > snapLSN {
				applyRecord(live, r, nextID)
				rec.Replayed++
				lastLSN = r.lsn
			} else if r.lsn > lastLSN {
				lastLSN = r.lsn
			}
			return nil
		})
		if err != nil {
			if errors.Is(err, errTruncated) {
				damaged = true
			} else {
				return rec, err
			}
		}
		if damaged {
			rec.Torn = true
			if err := os.Truncate(s.path, valid); err != nil {
				return rec, err
			}
		}
		s.bytes = valid
		kept = append(kept, s)
		endLSN = expect - 1
		if !damaged {
			continue
		}
		// The records lost here are [expect, next.firstLSN). When the
		// next segment chains from at or below snapLSN+1, every lost
		// record's effect is already in the loaded snapshot, so replay
		// safely continues through the later segments. Otherwise they
		// are unreachable (their records' effects may depend on the
		// lost ones) and are retired so appends continue from a
		// consistent position.
		if i+1 < len(segs) && expect <= segs[i+1].firstLSN && segs[i+1].firstLSN <= snapLSN+1 {
			l.opts.Logger.Info("wal: damage covered by snapshot; keeping later segments",
				"segment", filepath.Base(s.path), "offset", valid, "lsn", snapLSN)
			continue
		}
		for _, orphan := range segs[i+1:] {
			l.opts.Logger.Warn("wal: dropping segment orphaned by damage",
				"segment", filepath.Base(orphan.path), "damaged", filepath.Base(s.path))
			os.Remove(orphan.path)
		}
		l.opts.Logger.Warn("wal: tail damage, replay stops",
			"segment", filepath.Base(s.path), "offset", valid, "lsn", lastLSN)
		break
	}

	l.nextLSN, l.done = lastLSN+1, lastLSN
	l.lastLSN.Store(lastLSN)

	// Appending is only safe into a file whose record chain ends exactly
	// at nextLSN-1; anything else (truncation into a snapshot-covered
	// region, a tail the OS lost under a weak fsync policy) would put the
	// new record after an in-file LSN gap, and the next boot would
	// truncate it away as damage. Cut over to a fresh segment instead.
	if len(kept) == 0 || endLSN != lastLSN {
		kept = append(kept, segment{firstLSN: l.nextLSN, path: filepath.Join(l.opts.Dir, segName(l.nextLSN))})
	}
	active := &kept[len(kept)-1]
	f, err := os.OpenFile(active.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return rec, err
	}
	l.f = f
	l.segs = kept
	var total int64
	for _, s := range kept {
		total += s.bytes
	}
	l.walBytes.Store(total)
	l.segCount.Store(int64(len(kept)))
	return rec, nil
}

// sortedItems lists a live set by id. Deterministic order (id =
// insertion order) keeps restarts and snapshot files reproducible even
// though the queue itself doesn't care.
func sortedItems(live map[uint64]Item) []Item {
	items := make([]Item, 0, len(live))
	for _, it := range live {
		items = append(items, it)
	}
	sort.Slice(items, func(i, j int) bool { return items[i].ID < items[j].ID })
	return items
}

// applyRecord folds one replayed record into the live multiset.
func applyRecord(live map[uint64]Item, r record, nextID *uint64) {
	for _, it := range r.items {
		live[it.ID] = it
		if it.ID >= *nextID {
			*nextID = it.ID + 1
		}
	}
	for _, id := range r.ids {
		delete(live, id)
	}
}

// AllocIDs reserves n durable item ids and returns the first. Ids are
// assigned before the insert record is appended so the record can carry
// them.
func (l *Log) AllocIDs(n int) uint64 {
	return l.nextID.Add(uint64(n)) - uint64(n)
}

// AppendInsert logs that items entered the queue. It returns once the
// record is committed per the sync policy; concurrent appends share
// writes and fsyncs (group commit).
func (l *Log) AppendInsert(items []Item) error {
	lsn, err := l.StageInsert(items)
	if err != nil {
		return err
	}
	return l.Wait(lsn)
}

// AppendDelete logs that the items with these durable ids left the
// queue, with the same durability contract as AppendInsert.
func (l *Log) AppendDelete(ids []uint64) error {
	lsn, err := l.StageDelete(ids)
	if err != nil {
		return err
	}
	return l.Wait(lsn)
}

// StageInsert frames an insert record for items and returns its LSN
// without waiting for it (see Wait); no items stage nothing (LSN 0).
func (l *Log) StageInsert(items []Item) (uint64, error) { return l.stage(items, nil) }

// StageDelete is StageInsert for a delete record of these ids.
func (l *Log) StageDelete(ids []uint64) (uint64, error) { return l.stage(nil, ids) }

func (l *Log) stage(items []Item, ids []uint64) (uint64, error) {
	if len(items)+len(ids) == 0 {
		return 0, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.refusal(); err != nil {
		return 0, err
	}
	if items != nil {
		l.buf = appendInsert(l.buf, l.nextLSN, items)
	} else {
		l.buf = appendDelete(l.buf, l.nextLSN, ids)
	}
	l.nextLSN++
	l.appends.Add(1)
	l.sinceSnap.Add(1)
	return l.nextLSN - 1, nil
}

// Wait returns once a round has carried the record staged at lsn, and
// every one before it, to the OS (and disk under SyncAlways), leading
// rounds itself whenever none is in flight. Once a round has failed, a
// record it or a later round was to carry gets the ErrPoisoned error.
func (l *Log) Wait(lsn uint64) error {
	if lsn <= l.lastLSN.Load() {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.carry(lsn)
}

// Snapshot cuts the log at its end, durably writes items there as the
// full live-item set (the caller must have quiesced mutations so items
// is consistent with everything appended), and deletes segments and
// snapshots made redundant by retention. It waits out a snapshot in
// flight.
func (l *Log) Snapshot(items []Item) error {
	l.claim()
	return l.snapshot(func(uint64, []segment) ([]Item, error) { return items, nil })
}

// Fold is Snapshot without a caller or a quiesced queue: it cuts the log
// after the records staged so far and, outside every lock, replays the
// sealed segments onto the newest valid snapshot to get the live set at
// the cut. Appends go on meanwhile, after the cut. A fold that fails
// keeps the previous snapshot and its segments, and logs a Warn.
func (l *Log) Fold() error {
	l.claim()
	return l.snapshot(l.fold)
}

// StartFold runs Fold on its own goroutine unless a snapshot is in
// flight, and returns at once, so background folds never stack. The
// goroutine ends with the fold; Close waits for it.
func (l *Log) StartFold() {
	if l.snapping.CompareAndSwap(false, true) {
		go l.snapshot(l.fold) // a failure is logged
	}
}

// Close seals the log: outstanding appends complete, the active
// segment is fsynced, and the files are closed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.timer != nil {
		l.timer.Stop()
	}
	for l.snapping.Load() {
		l.cond.Wait() // a snapshot in flight finishes first
	}
	l.quiesce()
	// No final fsync on a poisoned log: after an fsync failure the
	// kernel may have dropped the dirty pages, and a "successful" retry
	// would only hide that. Just release the file.
	err := l.failed
	if err == nil {
		err = l.sync()
	}
	l.fileMu.Lock()
	defer l.fileMu.Unlock()
	return errors.Join(err, l.f.Close())
}

// refusal is the error an append or snapshot gets without touching the
// log. Called with mu held.
func (l *Log) refusal() error {
	if l.closed {
		return ErrClosed
	}
	return l.failed
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	return Stats{
		Policy:               l.opts.Policy.String(),
		LastLSN:              l.lastLSN.Load(),
		SnapshotLSN:          l.snapLSN.Load(),
		Segments:             int(l.segCount.Load()),
		WALBytes:             l.walBytes.Load(),
		Appends:              l.appends.Load(),
		Syncs:                l.syncs.Load(),
		Snapshots:            l.snapshots.Load(),
		RecordsSinceSnapshot: l.sinceSnap.Load(),
		RecoveredItems:       l.recoveredItems,
		ReplayedRecords:      l.replayed,
		TornTail:             l.torn,
		Failed:               l.poisoned.Load(),
	}
}

// carry is Wait with mu held.
func (l *Log) carry(lsn uint64) error {
	for l.done < lsn && l.failed == nil {
		l.step()
	}
	if l.done >= lsn {
		return nil
	}
	return l.failed
}

// quiesce carries every record staged before it with normal rounds, so
// staging meanwhile cannot keep it busy, then waits out the round in
// flight, leaving the files to the caller. Called with mu held.
func (l *Log) quiesce() {
	l.carry(l.nextLSN - 1)
	for l.busy {
		l.cond.Wait()
	}
}

// step waits for the round in flight to end, or leads the next one if
// there is none. Called with mu held.
func (l *Log) step() {
	if l.busy {
		l.cond.Wait()
	} else {
		l.round()
	}
}

// tick is the SyncInterval timer: it carries what was staged before it
// with normal rounds, then,
// only when something is unsynced, fsyncs with mu released, so rounds
// keep writing meanwhile. Then it re-arms.
func (l *Log) tick() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.carry(l.nextLSN-1) != nil {
		return
	}
	if l.sinceSync.Load() > 0 {
		l.mu.Unlock()
		err := l.sync()
		l.mu.Lock()
		if err != nil && !l.closed { // Close may have closed the file under it
			l.poison(err)
		}
	}
	if !l.closed {
		l.timer.Reset(l.opts.Interval)
	}
}

// round is one group commit, led by the caller: it takes everything
// staged in buf, and with mu released writes it as one batch (rotating
// first if the active segment is full) and fsyncs it under SyncAlways.
// Then it publishes the outcome and wakes every waiter; a poisoned log
// commits nothing more, even a round that was already writing. Called
// with mu held and no round in flight.
func (l *Log) round() {
	batch, first, last := l.buf, l.done+1, l.nextLSN-1
	l.buf, l.spare = l.spare, nil
	l.busy = true
	l.mu.Unlock()

	err := l.write(batch, first, last-first+1)
	if err == nil && l.opts.Policy == SyncAlways {
		err = l.sync()
	}

	l.mu.Lock()
	l.busy = false
	l.spare = batch[:0]
	if err != nil {
		l.poison(err)
	}
	if l.failed == nil {
		l.done = last
		l.lastLSN.Store(last)
	}
	l.cond.Broadcast()
}

// poison marks the log permanently failed after a write or fsync
// error. The failed bytes may already sit in the OS page cache and
// become durable anyway, so continuing to append (or to roll back in
// memory) would let post-crash replay diverge from the history clients
// observed; refusing everything keeps the two consistent. Called with
// mu held.
func (l *Log) poison(err error) {
	if l.failed != nil {
		return
	}
	l.failed = fmt.Errorf("%w: %v", ErrPoisoned, err)
	l.poisoned.Store(true)
	l.opts.Logger.Warn("wal: poisoned, refusing all further appends", "err", l.failed)
}

// write appends a batch of n framed records, the first at LSN first,
// to the active segment, rotating first if that segment is full.
func (l *Log) write(batch []byte, first, n uint64) error {
	if l.segs[len(l.segs)-1].bytes > l.opts.SegmentBytes {
		if err := seal(l.rotate(first)); err != nil {
			return err
		}
	}
	if _, err := l.f.Write(batch); err != nil {
		return err
	}
	l.segs[len(l.segs)-1].bytes += int64(len(batch))
	l.walBytes.Add(int64(len(batch)))
	l.sinceSync.Add(n)
	return nil
}

// sync fsyncs the active segment. The group-commit count is swapped as
// it starts, so every record lands in exactly one group.
func (l *Log) sync() error {
	l.fileMu.Lock()
	defer l.fileMu.Unlock()
	n := l.sinceSync.Swap(0)
	var t0 time.Time
	m := l.opts.Metrics
	if m != nil && m.FsyncNanos != nil {
		t0 = time.Now()
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	if m != nil {
		if m.FsyncNanos != nil {
			m.FsyncNanos.Observe(0, time.Since(t0).Nanoseconds())
		}
		// Records this fsync made durable — the group-commit batch
		// size.
		if m.CommitRecords != nil {
			m.CommitRecords.Observe(0, int64(n))
		}
	}
	l.syncs.Add(1)
	return nil
}

// rotate opens a fresh active segment whose first record will be first
// and returns the one it replaced (nil if none) for the caller to seal.
func (l *Log) rotate(first uint64) (file, error) {
	if last := &l.segs[len(l.segs)-1]; last.bytes == 0 && last.firstLSN == first {
		// Already cut at this boundary (e.g. a snapshot with no records
		// since the previous rotation). Rotating again would register a
		// second segment with the SAME path, and retention would then
		// unlink the active file — losing every append written after it.
		return nil, nil
	}
	seg := segment{firstLSN: first, path: filepath.Join(l.opts.Dir, segName(first))}
	f, err := os.OpenFile(seg.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	l.fileMu.Lock()
	old := l.f
	l.f = f
	l.fileMu.Unlock()
	l.segs = append(l.segs, seg)
	l.segCount.Store(int64(len(l.segs)))
	syncDir(l.opts.Dir)
	return old, nil
}

// seal fsyncs and closes the segment file rotate replaced, if any, and
// passes rotate's error through.
func seal(f file, err error) error {
	if f == nil || err != nil {
		return err
	}
	return errors.Join(f.Sync(), f.Close())
}

// claim takes the snapshot single flight, waiting out the one in
// progress.
func (l *Log) claim() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for !l.snapping.CompareAndSwap(false, true) {
		l.cond.Wait()
	}
}

// snapshot takes one snapshot in the single flight the caller claimed,
// then releases it. Under mu it quiesces and cuts the log after the last
// record carried: rotate opens the next segment. With mu released it
// fsyncs the sealed segment, gets the live set at the cut from items,
// given the cut LSN and the sealed segments holding every record up to
// it, and writes it with tmp + fsync + rename. Back under mu it
// publishes the snapshot and applies retention.
func (l *Log) snapshot(items func(lsn uint64, sealed []segment) ([]Item, error)) error {
	l.mu.Lock()
	defer func() {
		l.snapping.Store(false)
		l.cond.Broadcast()
		l.mu.Unlock()
	}()
	l.quiesce()
	if err := l.refusal(); err != nil {
		return err
	}
	lsn, nextID := l.done, l.nextID.Load() // ids are allocated before their record is staged
	old, err := l.rotate(lsn + 1)
	if err != nil {
		l.poison(err)
		return l.failed
	}
	l.sinceSnap.Store(l.nextLSN - 1 - lsn)
	sealed := append([]segment(nil), l.segs[:len(l.segs)-1]...)
	l.mu.Unlock()
	if err := seal(old, nil); err != nil { // its fsync runs beside the rounds, not in one
		l.mu.Lock()
		l.poison(err)
		return l.failed
	}
	live, err := items(lsn, sealed)
	if err == nil {
		err = writeSnapshotFile(l.opts.Dir, lsn, nextID, live) // a failed write leaves no file
	}
	l.mu.Lock()
	if err != nil {
		l.opts.Logger.Warn("wal: snapshot failed, keeping the previous one", "lsn", lsn, "err", err)
		return err
	}
	for l.busy {
		l.cond.Wait() // retain edits segs, which a round's leader owns
	}
	l.snapshots.Add(1)
	l.snapLSN.Store(lsn)
	l.retain()
	return nil
}

// fold replays the sealed segments onto the newest valid snapshot and
// returns the live set at lsn; every record after that snapshot up to
// lsn must be there, in order and undamaged. It reads a record at a
// time, and no segment the snapshot wholly covers.
func (l *Log) fold(lsn uint64, sealed []segment) ([]Item, error) {
	from, _, live := loadNewestSnapshot(l.opts.Dir, l.opts.Logger)
	next := from + 1 // the record due next
	var ids uint64   // unused: the cut bounds the snapshot's ids
	for i, s := range sealed {
		if i+1 < len(sealed) && sealed[i+1].firstLSN <= next {
			continue
		}
		_, damaged, err := scanFile(s.path, func(r record) error {
			if r.lsn >= next {
				if r.lsn != next {
					return fmt.Errorf("wal: fold: %s holds lsn %d where %d was due", filepath.Base(s.path), r.lsn, next)
				}
				applyRecord(live, r, &ids)
				next++
			}
			return nil
		})
		if damaged {
			err = fmt.Errorf("wal: fold: damaged record in %s after lsn %d", filepath.Base(s.path), next-1)
		}
		if err != nil {
			return nil, err
		}
	}
	if next != lsn+1 {
		return nil, fmt.Errorf("wal: fold: records %d..%d missing", next, lsn)
	}
	return sortedItems(live), nil
}

// snapshotRetain is how many snapshots retain keeps; segment retention
// is computed against the oldest kept one so boot can fall back to it if
// the newest is damaged.
const snapshotRetain = 2

// retain deletes snapshots beyond snapshotRetain and segments wholly
// covered by the oldest retained snapshot (so a fallback boot from that
// snapshot still finds every record it needs).
func (l *Log) retain() {
	lsns, err := listLSNs(l.opts.Dir, snapFormat)
	if err != nil {
		return
	}
	for len(lsns) > snapshotRetain {
		os.Remove(filepath.Join(l.opts.Dir, snapName(lsns[0])))
		lsns = lsns[1:]
	}
	if len(lsns) == 0 {
		return
	}
	coverLSN := lsns[0]
	kept := l.segs[:0]
	for i := range l.segs {
		covered := i+1 < len(l.segs) && l.segs[i+1].firstLSN <= coverLSN+1
		if covered {
			l.walBytes.Add(-l.segs[i].bytes)
			if err := os.Remove(l.segs[i].path); err != nil {
				l.opts.Logger.Warn("wal: retention", "segment", filepath.Base(l.segs[i].path), "err", err)
			}
		} else {
			kept = append(kept, l.segs[i])
		}
	}
	l.segs = kept
	l.segCount.Store(int64(len(l.segs)))
	syncDir(l.opts.Dir)
}
