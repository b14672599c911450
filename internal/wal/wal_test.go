package wal

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pq/internal/obs"
)

// tLog writes a logger's lines into the test log.
type tLog struct{ t *testing.T }

func (w tLog) Write(p []byte) (int, error) {
	w.t.Log(string(bytes.TrimRight(p, "\n")))
	return len(p), nil
}

func openT(t *testing.T, dir string, mod func(*Options)) (*Log, Recovery) {
	t.Helper()
	opts := Options{Dir: dir, Policy: SyncNever, Logger: slog.New(slog.NewTextHandler(tLog{t}, nil))}
	if mod != nil {
		mod(&opts)
	}
	l, rec, err := Open(opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l, rec
}

func liveMap(items []Item) map[uint64]Item {
	m := make(map[uint64]Item, len(items))
	for _, it := range items {
		m[it.ID] = it
	}
	return m
}

func checkItems(t *testing.T, got []Item, want map[uint64]Item) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("recovered %d items, want %d", len(got), len(want))
	}
	seen := make(map[uint64]bool, len(got))
	for _, it := range got {
		if seen[it.ID] {
			t.Fatalf("item id=%d recovered twice", it.ID)
		}
		seen[it.ID] = true
		w, ok := want[it.ID]
		if !ok {
			t.Fatalf("recovered unexpected item id=%d", it.ID)
		}
		if it.Pri != w.Pri || !bytes.Equal(it.Value, w.Value) {
			t.Fatalf("item id=%d: got pri=%d value=%q, want pri=%d value=%q",
				it.ID, it.Pri, it.Value, w.Pri, w.Value)
		}
	}
}

// mustAppendInsert appends n single-item insert records and returns them.
func mustAppendInsert(t *testing.T, l *Log, n int) []Item {
	t.Helper()
	items := make([]Item, 0, n)
	for i := 0; i < n; i++ {
		id := l.AllocIDs(1)
		it := Item{ID: id, Pri: uint32(i % 7), Value: []byte(fmt.Sprintf("v-%d", id))}
		if err := l.AppendInsert([]Item{it}); err != nil {
			t.Fatalf("AppendInsert: %v", err)
		}
		items = append(items, it)
	}
	return items
}

func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, rec := openT(t, dir, nil)
	if len(rec.Items) != 0 || rec.Replayed != 0 || rec.Torn {
		t.Fatalf("fresh log recovered %+v", rec)
	}

	items := mustAppendInsert(t, l, 20)
	// Delete a few, including a batch.
	if err := l.AppendDelete([]uint64{items[0].ID}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendDelete([]uint64{items[3].ID, items[4].ID, items[5].ID}); err != nil {
		t.Fatal(err)
	}
	// A batch insert record too.
	first := l.AllocIDs(3)
	batch := []Item{
		{ID: first, Pri: 2, Value: []byte("b0")},
		{ID: first + 1, Pri: 9, Value: nil},
		{ID: first + 2, Pri: 0, Value: bytes.Repeat([]byte("x"), 300)},
	}
	if err := l.AppendInsert(batch); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	want := liveMap(items)
	delete(want, items[0].ID)
	delete(want, items[3].ID)
	delete(want, items[4].ID)
	delete(want, items[5].ID)
	for _, it := range batch {
		want[it.ID] = it
	}

	l2, rec2 := openT(t, dir, nil)
	defer l2.Close()
	checkItems(t, rec2.Items, want)
	if rec2.Torn {
		t.Fatal("clean log reported torn tail")
	}
	// 20 single inserts + 1 single delete + 1 batch delete + 1 batch insert.
	if rec2.Replayed != 23 {
		t.Fatalf("replayed %d records, want 23", rec2.Replayed)
	}
	// Recovered items come back sorted by id (deterministic load order).
	for i := 1; i < len(rec2.Items); i++ {
		if rec2.Items[i-1].ID >= rec2.Items[i].ID {
			t.Fatalf("recovered items not sorted by id at %d", i)
		}
	}
	// Ids keep advancing after reopen: no reuse of durable ids.
	if id := l2.AllocIDs(1); id < first+3 {
		t.Fatalf("id %d reused after reopen (want >= %d)", id, first+3)
	}
}

func TestGroupCommit(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, func(o *Options) { o.Policy = SyncAlways })

	const workers, per = 8, 40
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := l.AllocIDs(1)
				it := Item{ID: id, Pri: uint32(w), Value: []byte{byte(w), byte(i)}}
				if err := l.AppendInsert([]Item{it}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent append: %v", err)
	}

	st := l.Stats()
	if st.Appends != workers*per {
		t.Fatalf("appends = %d, want %d", st.Appends, workers*per)
	}
	if st.Syncs == 0 || st.Syncs > st.Appends {
		t.Fatalf("syncs = %d (appends %d): every append must be covered by a sync, batched or not",
			st.Syncs, st.Appends)
	}
	t.Logf("group commit: %d appends amortized over %d fsyncs", st.Appends, st.Syncs)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec := openT(t, dir, nil)
	defer l2.Close()
	if len(rec.Items) != workers*per {
		t.Fatalf("recovered %d items, want %d", len(rec.Items), workers*per)
	}
}

func TestSyncIntervalFlushes(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, func(o *Options) {
		o.Policy = SyncInterval
		o.Interval = time.Millisecond
	})
	defer l.Close()
	mustAppendInsert(t, l, 10)
	deadline := time.Now().Add(2 * time.Second)
	for l.Stats().Syncs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("interval policy never fsynced")
		}
		time.Sleep(time.Millisecond)
	}
}

// snapshotFunc writes a snapshot of l whose live set is items: through
// Snapshot(items), or by folding the log, which must reach the same set.
type snapshotFunc func(l *Log, items []Item) error

// eachSnapshotter runs test once per snapshot writer, as subtests.
func eachSnapshotter(t *testing.T, test func(t *testing.T, snapshot snapshotFunc)) {
	t.Run("items", func(t *testing.T) {
		test(t, func(l *Log, items []Item) error { return l.Snapshot(items) })
	})
	t.Run("fold", func(t *testing.T) {
		test(t, func(l *Log, _ []Item) error { return l.Fold() })
	})
}

func TestSegmentRotationAndRetention(t *testing.T) {
	eachSnapshotter(t, testSegmentRotationAndRetention)
}

func testSegmentRotationAndRetention(t *testing.T, snapshot snapshotFunc) {
	dir := t.TempDir()
	l, _ := openT(t, dir, func(o *Options) { o.SegmentBytes = 1 << 10 })
	items := mustAppendInsert(t, l, 200) // ~30 bytes/record: many segments

	if st := l.Stats(); st.Segments < 3 {
		t.Fatalf("expected rotation, got %d segments", st.Segments)
	}
	if got := len(segFiles(t, dir)); got != l.Stats().Segments {
		t.Fatalf("stats say %d segments, disk has %d", l.Stats().Segments, got)
	}

	// A snapshot covers every sealed segment, so retention deletes them
	// all: only the fresh post-rotation segment remains.
	before := l.Stats().Segments
	if err := snapshot(l, items); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	st := l.Stats()
	if st.Segments >= before {
		t.Fatalf("retention did not shrink segments: %d -> %d", before, st.Segments)
	}
	if st.Snapshots != 1 {
		t.Fatalf("snapshots = %d, want 1", st.Snapshots)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec := openT(t, dir, nil)
	defer l2.Close()
	checkItems(t, rec.Items, liveMap(items))
	if rec.Replayed != 0 {
		t.Fatalf("boot after snapshot replayed %d records, want 0", rec.Replayed)
	}
	if rec.SnapshotLSN == 0 {
		t.Fatal("boot did not load the snapshot")
	}
}

func TestSnapshotCoversTail(t *testing.T) { eachSnapshotter(t, testSnapshotCoversTail) }

func testSnapshotCoversTail(t *testing.T, snapshot snapshotFunc) {
	dir := t.TempDir()
	l, _ := openT(t, dir, nil)
	base := mustAppendInsert(t, l, 10)
	if err := snapshot(l, base); err != nil {
		t.Fatal(err)
	}
	tail := mustAppendInsert(t, l, 5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec := openT(t, dir, nil)
	defer l2.Close()
	if rec.Replayed != 5 {
		t.Fatalf("replayed %d records, want only the 5 post-snapshot ones", rec.Replayed)
	}
	want := liveMap(base)
	for _, it := range tail {
		want[it.ID] = it
	}
	checkItems(t, rec.Items, want)
}

func TestSnapshotFallbackWhenNewestCorrupt(t *testing.T) {
	eachSnapshotter(t, testSnapshotFallbackWhenNewestCorrupt)
}

func testSnapshotFallbackWhenNewestCorrupt(t *testing.T, snapshot snapshotFunc) {
	dir := t.TempDir()
	l, _ := openT(t, dir, nil)
	base := mustAppendInsert(t, l, 8)
	if err := snapshot(l, base); err != nil {
		t.Fatal(err)
	}
	tail := mustAppendInsert(t, l, 4)
	all := append(append([]Item(nil), base...), tail...)
	if err := snapshot(l, all); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the newest snapshot; boot must fall back to the older one
	// and find the records between the two still on disk (retention keeps
	// segments for the oldest retained snapshot, exactly for this).
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil || len(snaps) != 2 {
		t.Fatalf("want 2 snapshots, got %v (%v)", snaps, err)
	}
	newest := snaps[len(snaps)-1]
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, rec := openT(t, dir, nil)
	defer l2.Close()
	checkItems(t, rec.Items, liveMap(all))
	if rec.Replayed == 0 {
		t.Fatal("fallback boot should have replayed the log between the snapshots")
	}
}

// buildLog writes n single-insert records and closes the log cleanly,
// returning the items and the (single) segment file.
func buildLog(t *testing.T, dir string, n int) ([]Item, string) {
	t.Helper()
	l, _ := openT(t, dir, nil)
	items := mustAppendInsert(t, l, n)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segFiles(t, dir)
	if len(segs) != 1 {
		t.Fatalf("want 1 segment, got %v", segs)
	}
	return items, segs[0]
}

func TestTornTailTruncatedRecord(t *testing.T) {
	dir := t.TempDir()
	items, seg := buildLog(t, dir, 12)
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Chop into the middle of the final record.
	if err := os.Truncate(seg, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	l, rec := openT(t, dir, nil)
	if !rec.Torn {
		t.Fatal("truncated tail not reported as torn")
	}
	checkItems(t, rec.Items, liveMap(items[:11]))

	// The damaged suffix is gone and the log accepts new records.
	more := mustAppendInsert(t, l, 3)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rec2 := openT(t, dir, nil)
	defer l2.Close()
	want := liveMap(items[:11])
	for _, it := range more {
		want[it.ID] = it
	}
	checkItems(t, rec2.Items, want)
	if rec2.Torn {
		t.Fatal("torn flag persisted after the tail was repaired")
	}
}

func TestTornTailBitFlip(t *testing.T) {
	dir := t.TempDir()
	items, seg := buildLog(t, dir, 12)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01 // flip a bit inside the last record's value
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l, rec := openT(t, dir, nil)
	defer l.Close()
	if !rec.Torn {
		t.Fatal("bit flip not reported as torn")
	}
	checkItems(t, rec.Items, liveMap(items[:11]))
}

func TestTornTailZeroFill(t *testing.T) {
	dir := t.TempDir()
	items, seg := buildLog(t, dir, 12)
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A power cut can leave preallocated-but-unwritten zero pages.
	if _, err := f.Write(make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	goodSize := mustSize(t, seg) - 4096

	l, rec := openT(t, dir, nil)
	defer l.Close()
	if !rec.Torn {
		t.Fatal("zero-filled tail not reported as torn")
	}
	checkItems(t, rec.Items, liveMap(items)) // every real record survives
	if got := mustSize(t, seg); got != goodSize {
		t.Fatalf("zero fill not truncated: size %d, want %d", got, goodSize)
	}
}

func mustSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

func TestDamagedMiddleSegmentDropsOrphans(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, func(o *Options) { o.SegmentBytes = 256 })
	items := mustAppendInsert(t, l, 40)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segFiles(t, dir)
	if len(segs) < 3 {
		t.Fatalf("want >=3 segments, got %d", len(segs))
	}
	// Corrupt the second segment: replay must stop there and retire the
	// later segments (their records depend on the lost ones).
	data, err := os.ReadFile(segs[1])
	if err != nil {
		t.Fatal(err)
	}
	data[recHeader+2] ^= 0xff
	if err := os.WriteFile(segs[1], data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, rec := openT(t, dir, nil)
	defer l2.Close()
	if !rec.Torn {
		t.Fatal("mid-log damage not reported as torn")
	}
	if len(rec.Items) >= len(items) {
		t.Fatalf("recovered %d items, expected fewer than %d", len(rec.Items), len(items))
	}
	// Only a prefix of the inserts can have survived.
	for i, it := range rec.Items {
		want := items[i]
		if it.ID != want.ID || !bytes.Equal(it.Value, want.Value) {
			t.Fatalf("recovered item %d = id %d, want prefix item id %d", i, it.ID, want.ID)
		}
	}
	if got := len(segFiles(t, dir)); got > 2 {
		t.Fatalf("orphaned segments not removed: %d files remain", got)
	}
}

// TestCoveredDamageKeepsLaterSegments: damage inside a sealed segment
// wholly covered by the newest snapshot must not drop the intact later
// segments — the lost records' effects are already in the snapshot, so
// replay continues through them and the acked post-snapshot records
// survive. (Regression: the orphan-drop path used to fire here and
// lose the whole tail.)
func TestCoveredDamageKeepsLaterSegments(t *testing.T) {
	eachSnapshotter(t, testCoveredDamageKeepsLaterSegments)
}

func testCoveredDamageKeepsLaterSegments(t *testing.T, snapshot snapshotFunc) {
	dir := t.TempDir()
	l, _ := openT(t, dir, func(o *Options) { o.SegmentBytes = 256 })
	base := mustAppendInsert(t, l, 10) // lsn 1..10
	if err := snapshot(l, base); err != nil {
		t.Fatal(err)
	}
	mid := mustAppendInsert(t, l, 20) // lsn 11..30, spans several segments
	all := append(append([]Item(nil), base...), mid...)
	if err := snapshot(l, all); err != nil {
		t.Fatal(err) // snap@30; mid segments stay for the snap@10 fallback
	}
	tail := mustAppendInsert(t, l, 5) // lsn 31..35
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segFiles(t, dir)
	if len(segs) < 3 {
		t.Fatalf("want >=3 segments, got %v", segs)
	}
	// Corrupt the first record of the oldest remaining segment: all its
	// records predate the newest snapshot, and its successor still
	// chains from below that snapshot's LSN.
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[recHeader+2] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, rec := openT(t, dir, nil)
	if !rec.Torn {
		t.Fatal("covered damage not reported as torn")
	}
	want := liveMap(all)
	for _, it := range tail {
		want[it.ID] = it
	}
	checkItems(t, rec.Items, want) // nothing acked is lost
	if rec.Replayed != len(tail) {
		t.Fatalf("replayed %d records, want the %d post-snapshot ones", rec.Replayed, len(tail))
	}

	// And the log still appends + survives another boot.
	more := mustAppendInsert(t, l2, 3)
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3, rec3 := openT(t, dir, nil)
	defer l3.Close()
	for _, it := range more {
		want[it.ID] = it
	}
	checkItems(t, rec3.Items, want)
	if rec3.Torn {
		t.Fatal("damage reappeared after repair")
	}
}

// TestAppendAfterCoveredTruncationStartsFreshSegment: when replay
// truncates damage in a snapshot-covered region and no segment holds
// nextLSN-1, the log must rotate to a fresh segment named for nextLSN.
// Appending into the truncated file would place the new record after
// an in-file LSN gap, and the NEXT boot would silently truncate it
// away as damage. (Regression.)
func TestAppendAfterCoveredTruncationStartsFreshSegment(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, nil)
	base := mustAppendInsert(t, l, 10) // lsn 1..10
	if err := l.Snapshot(base); err != nil {
		t.Fatal(err) // snap@10
	}
	mid := mustAppendInsert(t, l, 10) // lsn 11..20
	all := append(append([]Item(nil), base...), mid...)
	if err := l.Snapshot(all); err != nil {
		t.Fatal(err) // snap@20, rotates to an empty active segment
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Lose the empty active segment and corrupt the first record of the
	// sealed one: the surviving record chain now ends below snap@20.
	segs := segFiles(t, dir)
	if len(segs) != 2 {
		t.Fatalf("want 2 segments, got %v", segs)
	}
	if err := os.Remove(segs[1]); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[recHeader+2] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, rec := openT(t, dir, nil)
	if !rec.Torn {
		t.Fatal("damage not reported as torn")
	}
	checkItems(t, rec.Items, liveMap(all)) // the snapshot carries everything
	more := mustAppendInsert(t, l2, 3)
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	l3, rec3 := openT(t, dir, nil)
	defer l3.Close()
	if rec3.Torn {
		t.Fatal("second boot found damage: post-recovery appends broke LSN continuity")
	}
	want := liveMap(all)
	for _, it := range more {
		want[it.ID] = it
	}
	checkItems(t, rec3.Items, want)
}

// TestWriteFailurePoisonsLog: after a write error the log must refuse
// every subsequent append and snapshot. The failed record's bytes may
// sit in the page cache and become durable anyway, so serving on as if
// the rollback were clean would let post-crash replay diverge from the
// history clients observed.
func TestWriteFailurePoisonsLog(t *testing.T) { eachSnapshotter(t, testWriteFailurePoisonsLog) }

func testWriteFailurePoisonsLog(t *testing.T, snapshot snapshotFunc) {
	dir := t.TempDir()
	l, _ := openT(t, dir, func(o *Options) { o.Policy = SyncAlways })
	items := mustAppendInsert(t, l, 3)
	// Sever the descriptor under the writer: the next write(2) fails.
	l.f.Close()
	if err := l.AppendInsert([]Item{{ID: 100, Pri: 1, Value: []byte("x")}}); err == nil {
		t.Fatal("append on a severed descriptor succeeded")
	}
	if !l.Stats().Failed {
		t.Fatal("stats do not report the poisoned log")
	}
	if err := l.AppendDelete([]uint64{items[0].ID}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("append after failure: %v, want ErrPoisoned", err)
	}
	if err := snapshot(l, items); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("snapshot after failure: %v, want ErrPoisoned", err)
	}
	if err := l.Close(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("close after failure: %v, want ErrPoisoned", err)
	}
	// Only the pre-failure records were acked, and only they survive.
	l2, rec := openT(t, dir, nil)
	defer l2.Close()
	checkItems(t, rec.Items, liveMap(items))
}

// TestIdleSnapshotKeepsActiveSegment: a snapshot taken with no records
// since the previous rotation must not re-register the active segment
// under a second entry — retention would unlink the live file and every
// append after it would die with the inode. (Regression: found by an
// idle graceful-shutdown leaving a data dir with no segment at all.)
func TestIdleSnapshotKeepsActiveSegment(t *testing.T) {
	eachSnapshotter(t, testIdleSnapshotKeepsActiveSegment)
}

func testIdleSnapshotKeepsActiveSegment(t *testing.T, snapshot snapshotFunc) {
	dir := t.TempDir()
	l, _ := openT(t, dir, nil)
	base := mustAppendInsert(t, l, 3)
	if err := snapshot(l, base); err != nil {
		t.Fatal(err)
	}
	// Idle snapshot: nothing appended since the one above.
	if err := snapshot(l, base); err != nil {
		t.Fatal(err)
	}
	if len(segFiles(t, dir)) == 0 {
		t.Fatal("idle snapshot deleted the active segment file")
	}
	more := mustAppendInsert(t, l, 2)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec := openT(t, dir, nil)
	defer l2.Close()
	want := liveMap(base)
	for _, it := range more {
		want[it.ID] = it
	}
	checkItems(t, rec.Items, want)
	if rec.Replayed != 2 {
		t.Fatalf("replayed %d records, want the 2 post-snapshot appends", rec.Replayed)
	}
}

// TestFoldMatchesSnapshot: on one log, folding the segments onto the
// previous snapshot yields the same file content — covered LSN, next
// durable id and live multiset — as Snapshot given the true live set.
func TestFoldMatchesSnapshot(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, func(o *Options) { o.SegmentBytes = 512 })
	defer l.Close()
	model := make(map[uint64]Item)
	churn := func(n int) {
		items := mustAppendInsert(t, l, n)
		first := l.AllocIDs(3)
		batch := []Item{{ID: first, Pri: 1, Value: []byte("b0")}, {ID: first + 1, Pri: 2}, {ID: first + 2, Pri: 3, Value: []byte("b2")}}
		if err := l.AppendInsert(batch); err != nil {
			t.Fatal(err)
		}
		for _, it := range append(items, batch...) {
			model[it.ID] = it
		}
		var gone []uint64
		for _, it := range items[:n/3] {
			gone = append(gone, it.ID)
			delete(model, it.ID)
		}
		if err := l.AppendDelete(gone); err != nil {
			t.Fatal(err)
		}
		if err := l.AppendDelete([]uint64{first + 1}); err != nil {
			t.Fatal(err)
		}
		delete(model, first+1)
	}
	churn(30)
	if err := l.Fold(); err != nil { // the snapshot the next fold starts from
		t.Fatal(err)
	}
	churn(40)
	live := make([]Item, 0, len(model))
	for _, it := range model {
		live = append(live, it)
	}

	decode := func(snapshot func() error) (lsn, nextID uint64, items map[uint64]Item) {
		t.Helper()
		if err := snapshot(); err != nil {
			t.Fatal(err)
		}
		lsn = l.Stats().SnapshotLSN
		data, err := os.ReadFile(filepath.Join(dir, snapName(lsn)))
		if err != nil {
			t.Fatal(err)
		}
		_, nextID, items, err = decodeSnapshot(data)
		if err != nil {
			t.Fatal(err)
		}
		return lsn, nextID, items
	}
	// Fold first: Snapshot(live) at the same LSN would otherwise be the
	// snapshot the fold starts from, leaving it nothing to replay.
	foldLSN, foldNext, folded := decode(l.Fold)
	snapLSN, snapNext, given := decode(func() error { return l.Snapshot(live) })
	if foldLSN != snapLSN || foldNext != snapNext {
		t.Fatalf("fold covers lsn %d with next id %d; Snapshot covers lsn %d with next id %d",
			foldLSN, foldNext, snapLSN, snapNext)
	}
	checkItems(t, sortedItems(folded), given)
	checkItems(t, sortedItems(folded), model)
}

// TestFoldFailureKeepsPreviousSnapshot: a fold that cannot finish — a
// damaged record in the segments it replays, or a snapshot file it
// cannot put in place — returns the error, writes no snapshot, deletes
// no segment, and logs a Warn with the cut LSN. Once the damage is
// undone, boot recovers the exact live set.
func TestFoldFailureKeepsPreviousSnapshot(t *testing.T) {
	dir := t.TempDir()
	var logged bytes.Buffer
	l, _ := openT(t, dir, func(o *Options) {
		o.SegmentBytes = 256
		o.Logger = slog.New(slog.NewTextHandler(&logged, nil))
	})
	base := mustAppendInsert(t, l, 10)
	if err := l.Fold(); err != nil {
		t.Fatal(err)
	}
	prev := l.Stats()
	tail := mustAppendInsert(t, l, 30) // several sealed segments past the snapshot
	want := liveMap(append(base, tail...))
	snaps := func() (files []string) { // snapshot and .tmp files, not the blocker below
		t.Helper()
		names, err := filepath.Glob(filepath.Join(dir, "snap-*"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if fi, err := os.Stat(name); err == nil && fi.Mode().IsRegular() {
				files = append(files, name)
			}
		}
		return files
	}
	failed := func(cause string) {
		t.Helper()
		segsBefore := len(segFiles(t, dir))
		logged.Reset()
		err := l.Fold()
		if err == nil {
			t.Fatalf("%s: Fold succeeded", cause)
		}
		if got := snaps(); len(got) != 1 || got[0] != filepath.Join(dir, snapName(prev.SnapshotLSN)) {
			t.Fatalf("%s: snapshot files %v, want only the previous one", cause, got)
		}
		if st := l.Stats(); st.Snapshots != prev.Snapshots || st.SnapshotLSN != prev.SnapshotLSN {
			t.Fatalf("%s: published snapshot %d at lsn %d, want %d at %d",
				cause, st.Snapshots, st.SnapshotLSN, prev.Snapshots, prev.SnapshotLSN)
		}
		if got := len(segFiles(t, dir)); got < segsBefore {
			t.Fatalf("%s: %d segments left of %d", cause, got, segsBefore)
		}
		line := logged.String()
		if !strings.Contains(line, "level=WARN") || !strings.Contains(line, fmt.Sprintf("lsn=%d", l.Stats().LastLSN)) ||
			!strings.Contains(line, err.Error()) {
			t.Fatalf("%s: no Warn with the cut lsn and the error; logged %q", cause, line)
		}
		t.Logf("%s: %v", cause, err)
	}

	// A byte flipped inside a record of a sealed segment the fold replays.
	segs := segFiles(t, dir)
	victim := segs[1]
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[recHeader+2] ^= 0xff
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}
	failed("damaged record")
	data[recHeader+2] ^= 0xff
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// A directory where the snapshot file must go: the rename fails.
	blocker := filepath.Join(dir, snapName(l.Stats().LastLSN))
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	failed("failed rename")
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("failed rename left %v", tmps)
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}

	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rec := openT(t, dir, nil)
	defer l2.Close()
	if rec.Torn || rec.SnapshotLSN != prev.SnapshotLSN {
		t.Fatalf("boot after failed folds: torn=%v snapshot lsn %d, want the previous %d", rec.Torn, rec.SnapshotLSN, prev.SnapshotLSN)
	}
	checkItems(t, rec.Items, want)
}

func TestCloseSemantics(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, nil)
	mustAppendInsert(t, l, 1)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := l.AppendInsert([]Item{{ID: 99, Pri: 1}}); err != ErrClosed {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	if err := l.AppendDelete([]uint64{1}); err != ErrClosed {
		t.Fatalf("delete after close: %v, want ErrClosed", err)
	}
	if err := l.Fold(); err != ErrClosed {
		t.Fatalf("fold after close: %v, want ErrClosed", err)
	}
	if snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*")); len(snaps) != 0 {
		t.Fatalf("a fold after close wrote %v", snaps)
	}
}

// FuzzWALReplay round-trips random operation sequences through
// append -> close -> reopen -> replay and checks the recovered multiset
// against an in-memory model.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 2, 0, 3})
	f.Add([]byte{1, 1, 1, 3, 3, 3, 0, 2})
	f.Add(bytes.Repeat([]byte{0, 2}, 20))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		dir := t.TempDir()
		l, rec, err := Open(Options{Dir: dir, Policy: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Items) != 0 {
			t.Fatal("fresh dir recovered items")
		}
		model := make(map[uint64]Item)
		var liveIDs []uint64 // insertion order; deletes take from the front
		for i, op := range ops {
			switch op % 4 {
			case 0: // single insert
				id := l.AllocIDs(1)
				it := Item{ID: id, Pri: uint32(op), Value: []byte{op, byte(i)}}
				if err := l.AppendInsert([]Item{it}); err != nil {
					t.Fatal(err)
				}
				model[id] = it
				liveIDs = append(liveIDs, id)
			case 1: // batch insert
				n := int(op%5) + 2
				first := l.AllocIDs(n)
				batch := make([]Item, n)
				for j := 0; j < n; j++ {
					batch[j] = Item{ID: first + uint64(j), Pri: uint32(j), Value: []byte{op, byte(i), byte(j)}}
				}
				if err := l.AppendInsert(batch); err != nil {
					t.Fatal(err)
				}
				for _, it := range batch {
					model[it.ID] = it
					liveIDs = append(liveIDs, it.ID)
				}
			case 2: // single delete
				if len(liveIDs) == 0 {
					continue
				}
				id := liveIDs[0]
				liveIDs = liveIDs[1:]
				if err := l.AppendDelete([]uint64{id}); err != nil {
					t.Fatal(err)
				}
				delete(model, id)
			case 3: // batch delete
				n := int(op%7) + 1
				if n > len(liveIDs) {
					n = len(liveIDs)
				}
				if n == 0 {
					continue
				}
				ids := append([]uint64(nil), liveIDs[:n]...)
				liveIDs = liveIDs[n:]
				if err := l.AppendDelete(ids); err != nil {
					t.Fatal(err)
				}
				for _, id := range ids {
					delete(model, id)
				}
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		l2, rec2, err := Open(Options{Dir: dir, Policy: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		defer l2.Close()
		if rec2.Torn {
			t.Fatal("cleanly closed log reported torn")
		}
		if len(rec2.Items) != len(model) {
			t.Fatalf("recovered %d items, want %d", len(rec2.Items), len(model))
		}
		for _, it := range rec2.Items {
			w, ok := model[it.ID]
			if !ok {
				t.Fatalf("recovered unexpected id %d", it.ID)
			}
			if it.Pri != w.Pri || !bytes.Equal(it.Value, w.Value) {
				t.Fatalf("id %d mismatch: got (%d,%q) want (%d,%q)", it.ID, it.Pri, it.Value, w.Pri, w.Value)
			}
		}
	})
}

// TestAppendZeroAlloc pins the append path's allocation budget: framing
// goes straight into the shared buffer and a waiter waits on the log's
// condition variable, so an insert+delete pair allocates nothing under
// any policy once the buffers have grown — appended one by one, or
// staged together and waited for once.
func TestAppendZeroAlloc(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation counts are not meaningful under the race detector")
			}
		}
	}
	value := bytes.Repeat([]byte("v"), 64)
	for _, policy := range []SyncPolicy{SyncNever, SyncInterval, SyncAlways} {
		t.Run(policy.String(), func(t *testing.T) {
			l, _ := openT(t, t.TempDir(), func(o *Options) { o.Policy = policy })
			defer l.Close()
			var err error
			pair := func() {
				id := l.AllocIDs(1)
				if e := l.AppendInsert([]Item{{ID: id, Pri: 3, Value: value}}); e != nil {
					err = e
				}
				if e := l.AppendDelete([]uint64{id}); e != nil {
					err = e
				}
				id = l.AllocIDs(1)
				if _, e := l.StageInsert([]Item{{ID: id, Pri: 3, Value: value}}); e != nil {
					err = e
				}
				lsn, e := l.StageDelete([]uint64{id})
				if e != nil {
					err = e
				}
				if e := l.Wait(lsn); e != nil {
					err = e
				}
			}
			pair() // grow both round buffers
			pair()
			if allocs := testing.AllocsPerRun(100, pair); allocs != 0 {
				t.Fatalf("%v allocations per insert+delete pair, want 0", allocs)
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// faultyFile wraps a segment file and fails its failAt-th Sync. synced
// is how many bytes the successful fsyncs covered. Only a round's
// leader touches it, and rounds never overlap.
type faultyFile struct {
	file
	failAt, syncs   int
	written, synced int64
}

func (f *faultyFile) Write(p []byte) (int, error) {
	n, err := f.file.Write(p)
	f.written += int64(n)
	return n, err
}

func (f *faultyFile) Sync() error {
	if f.syncs++; f.syncs == f.failAt {
		return errors.New("injected fsync failure")
	}
	if err := f.file.Sync(); err != nil {
		return err
	}
	f.synced = f.written
	return nil
}

// TestFsyncFailureFailsWholeGroup: when the fsync a round's leader
// issues fails, every committer in that round — and every one queued
// behind it — gets the failure, nobody hangs, and no committer whose
// record the failed fsync was to cover is told it is durable.
func TestFsyncFailureFailsWholeGroup(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, func(o *Options) { o.Policy = SyncAlways })
	ff := &faultyFile{file: l.f, failAt: 5}
	l.f = ff

	const workers, per = 8, 50
	type result struct {
		it  Item
		err error
	}
	results := make([][]result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				it := Item{ID: l.AllocIDs(1), Pri: uint32(w), Value: []byte{byte(w), byte(i)}}
				start := time.Now()
				err := l.AppendInsert([]Item{it})
				if d := time.Since(start); d > 2*time.Second {
					t.Errorf("append took %v", d)
				}
				results[w] = append(results[w], result{it, err})
			}
		}(w)
	}
	waitOrFail(t, &wg, 10*time.Second)

	acked := make(map[uint64]Item)
	failures := 0
	for w, rs := range results {
		failed := false
		for _, r := range rs {
			switch {
			case r.err == nil && failed:
				t.Fatalf("worker %d: append id=%d acked after an earlier one failed", w, r.it.ID)
			case r.err == nil:
				acked[r.it.ID] = r.it
			case !errors.Is(r.err, ErrPoisoned):
				t.Fatalf("worker %d: append id=%d: %v, want ErrPoisoned", w, r.it.ID, r.err)
			default:
				failed = true
				failures++
			}
		}
	}
	if failures == 0 {
		t.Fatal("the injected fsync failure reached no committer")
	}
	if err := l.AppendDelete([]uint64{1}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("append after the failed round: %v, want ErrPoisoned", err)
	}
	if err := l.Close(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("close after failure: %v, want ErrPoisoned", err)
	}

	// Every acked record lies in the prefix the successful fsyncs covered:
	// none of them rode in the round whose fsync failed.
	data, err := os.ReadFile(segFiles(t, dir)[0])
	if err != nil {
		t.Fatal(err)
	}
	durable := make(map[uint64]bool)
	if _, damaged, err := scanSegment(bytes.NewReader(data[:ff.synced]), func(r record) error {
		for _, it := range r.items {
			durable[it.ID] = true
		}
		return nil
	}); err != nil || damaged {
		t.Fatalf("synced prefix: damaged=%v err=%v", damaged, err)
	}
	for id := range acked {
		if !durable[id] {
			t.Fatalf("append id=%d was acked but no successful fsync covered it", id)
		}
	}

	l2, rec := openT(t, dir, nil)
	defer l2.Close()
	got := liveMap(rec.Items)
	for id, want := range acked {
		if it, ok := got[id]; !ok || !bytes.Equal(it.Value, want.Value) {
			t.Fatalf("acked item id=%d not recovered", id)
		}
	}
	t.Logf("%d acked, %d failed, %d recovered", len(acked), failures, len(rec.Items))
}

// waitOrFail waits for wg, failing the test if that takes longer than d.
func waitOrFail(t *testing.T, wg *sync.WaitGroup, d time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("goroutines still running after %v", d)
	}
}

// TestCloseRacesAppends: Close arrives while committers are queued and
// rounds are in flight, with snapshots interleaved — Snapshot(items)
// behind a quiesce lock, or folds beside the appenders. Every append either
// succeeds or gets ErrClosed, nothing hangs, and the next boot recovers
// exactly the acked inserts minus the acked deletes.
func TestCloseRacesAppends(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncNever, SyncInterval, SyncAlways} {
		t.Run(policy.String(), func(t *testing.T) {
			t.Run("items", func(t *testing.T) { closeRacesAppends(t, policy, false) })
			t.Run("fold", func(t *testing.T) { closeRacesAppends(t, policy, true) })
		})
	}
}

func closeRacesAppends(t *testing.T, policy SyncPolicy, fold bool) {
	dir := t.TempDir()
	l, _ := openT(t, dir, func(o *Options) {
		o.Policy = policy
		o.Interval = time.Millisecond
		o.SegmentBytes = 4 << 10
	})

	// Appenders hold quiesce's read side across an append and its
	// bookkeeping, so Snapshot(items) sees exactly the acked live set.
	// The fold takes no such lock: it reads the live set from the log.
	var quiesce sync.RWMutex
	live := make(map[uint64]Item)
	var liveMu sync.Mutex
	const workers, closeAfter = 8, 400
	var acked atomic.Int64
	ready := make(chan struct{})
	var readyOnce sync.Once

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []uint64
			for i := 0; ; i++ {
				quiesce.RLock()
				var err error
				if i%3 == 2 && len(mine) > 0 {
					id := mine[0]
					if err = l.AppendDelete([]uint64{id}); err == nil {
						mine = mine[1:]
						liveMu.Lock()
						delete(live, id)
						liveMu.Unlock()
					}
				} else {
					it := Item{ID: l.AllocIDs(1), Pri: uint32(w), Value: []byte{byte(w), byte(i)}}
					if err = l.AppendInsert([]Item{it}); err == nil {
						mine = append(mine, it.ID)
						liveMu.Lock()
						live[it.ID] = it
						liveMu.Unlock()
					}
				}
				quiesce.RUnlock()
				if err != nil {
					if err != ErrClosed {
						t.Errorf("worker %d: %v, want nil or ErrClosed", w, err)
					}
					return
				}
				if acked.Add(1) == closeAfter {
					readyOnce.Do(func() { close(ready) })
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			var err error
			if fold {
				err = l.Fold() // reads only the log: appenders go on
			} else {
				quiesce.Lock()
				liveMu.Lock()
				items := make([]Item, 0, len(live))
				for _, it := range live {
					items = append(items, it)
				}
				liveMu.Unlock()
				err = l.Snapshot(items)
				quiesce.Unlock()
			}
			if err != nil {
				if err != ErrClosed {
					t.Errorf("snapshot: %v, want nil or ErrClosed", err)
				}
				return
			}
		}
	}()

	select {
	case <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("appenders made no progress")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	waitOrFail(t, &wg, 10*time.Second)

	l2, rec := openT(t, dir, nil)
	defer l2.Close()
	checkItems(t, rec.Items, live)
}

// TestGroupCommitMetrics: the group-commit histogram sees every fsync
// and every record exactly once — its count is Stats().Syncs and its
// sum Stats().Appends — and an idle SyncInterval log does not fsync.
func TestGroupCommitMetrics(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncInterval} {
		t.Run(policy.String(), func(t *testing.T) {
			m := &obs.WALMetrics{
				FsyncNanos:    obs.NewHistogram(1, obs.LatencyMinShift, obs.LatencyMaxShift),
				CommitRecords: obs.NewHistogram(1, 0, 20),
			}
			l, _ := openT(t, t.TempDir(), func(o *Options) {
				o.Policy = policy
				o.Interval = time.Millisecond
				o.Metrics = m
			})
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 40; i++ {
						if err := l.AppendInsert([]Item{{ID: l.AllocIDs(1), Pri: uint32(w)}}); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			waitOrFail(t, &wg, 10*time.Second)

			if policy == SyncInterval {
				deadline := time.Now().Add(2 * time.Second)
				for m.CommitRecords.Snapshot().Sum != int64(l.Stats().Appends) {
					if time.Now().After(deadline) {
						t.Fatal("interval timer never synced the tail")
					}
					time.Sleep(time.Millisecond)
				}
				before := l.Stats().Syncs
				time.Sleep(20 * l.opts.Interval)
				if after := l.Stats().Syncs; after != before {
					t.Fatalf("idle log fsynced %d times", after-before)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			st, recs := l.Stats(), m.CommitRecords.Snapshot()
			if recs.Count != st.Syncs || m.FsyncNanos.Snapshot().Count != st.Syncs {
				t.Fatalf("histograms saw %d / %d fsyncs, stats %d",
					recs.Count, m.FsyncNanos.Snapshot().Count, st.Syncs)
			}
			if recs.Sum != int64(st.Appends) {
				t.Fatalf("group sizes sum to %d, appends %d", recs.Sum, st.Appends)
			}
			t.Logf("%d appends over %d fsyncs", st.Appends, st.Syncs)
		})
	}
}

// hookFile wraps a segment file; write, when set, runs before each
// Write and may fail it instead, and sync likewise before each Sync.
type hookFile struct {
	file
	write func(p []byte) error
	sync  func() error
}

func (f *hookFile) Write(p []byte) (int, error) {
	if f.write != nil {
		if err := f.write(p); err != nil {
			return 0, err
		}
	}
	return f.file.Write(p)
}

func (f *hookFile) Sync() error {
	if f.sync != nil {
		if err := f.sync(); err != nil {
			return err
		}
	}
	return f.file.Sync()
}

// TestIntervalFsyncDoesNotBlockAppends: under SyncInterval the timer's
// fsync runs beside the write rounds, so an append issued while that
// fsync is stuck still returns once its record is written.
func TestIntervalFsyncDoesNotBlockAppends(t *testing.T) {
	l, _ := openT(t, t.TempDir(), func(o *Options) {
		o.Policy = SyncInterval
		o.Interval = time.Millisecond
	})
	entered, release := make(chan struct{}, 1), make(chan struct{})
	// Installed before the first append: until then a tick touches no file.
	l.f = &hookFile{file: l.f, sync: func() error {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
		return nil
	}}
	defer func() {
		close(release)
		if err := l.Close(); err != nil {
			t.Error(err)
		}
	}()
	mustAppendInsert(t, l, 1)
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the interval fsync never began")
	}
	done := make(chan error, 1)
	go func() { done <- l.AppendInsert([]Item{{ID: l.AllocIDs(1), Pri: 1, Value: []byte("x")}}) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("an append waited for the interval fsync")
	}
}

// TestStageWaitOrderAndPoison: records staged from several goroutines
// reach the file in LSN order, and Wait returns only once its record's
// bytes were written. After a round's write fails, every Wait for a
// record in that round or staged behind it gets ErrPoisoned, earlier
// records stay committed, and every stage is refused.
func TestStageWaitOrderAndPoison(t *testing.T) {
	l, _ := openT(t, t.TempDir(), nil)
	var (
		mu      sync.Mutex
		written []byte
		fail    atomic.Bool
	)
	inWrite, proceed := make(chan struct{}), make(chan struct{})
	l.f = &hookFile{file: l.f, write: func(p []byte) error {
		if fail.Load() {
			inWrite <- struct{}{}
			<-proceed
			return errors.New("injected write failure")
		}
		mu.Lock()
		written = append(written, p...)
		mu.Unlock()
		return nil
	}}
	// scanWritten calls fn for each record written so far, in file order.
	scanWritten := func(fn func(r record) error) {
		mu.Lock()
		defer mu.Unlock()
		if _, damaged, err := scanSegment(bytes.NewReader(written), fn); err != nil || damaged {
			t.Errorf("written bytes: damaged=%v err=%v", damaged, err)
		}
	}

	const workers, per, waitEvery = 4, 60, 5
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				var lsn uint64
				var err error
				if it := (Item{ID: l.AllocIDs(1), Pri: uint32(w), Value: []byte{byte(w), byte(i)}}); i%2 == 0 {
					lsn, err = l.StageInsert([]Item{it})
				} else {
					lsn, err = l.StageDelete([]uint64{it.ID})
				}
				if err != nil {
					t.Error(err)
					return
				}
				if i%waitEvery != waitEvery-1 {
					continue // stage several, wait once for the last
				}
				if err := l.Wait(lsn); err != nil {
					t.Error(err)
					return
				}
				found := false
				scanWritten(func(r record) error {
					found = found || r.lsn == lsn
					return nil
				})
				if !found {
					t.Errorf("Wait(%d) returned before the record was written", lsn)
				}
			}
		}(w)
	}
	waitOrFail(t, &wg, 10*time.Second)
	next := uint64(1)
	scanWritten(func(r record) error {
		if r.lsn != next {
			t.Fatalf("record %d written where %d was due", r.lsn, next)
		}
		next++
		return nil
	})
	if next != workers*per+1 {
		t.Fatalf("%d records written, want %d", next-1, workers*per)
	}

	committed := next - 1
	fail.Store(true)
	failed, err := l.StageInsert([]Item{{ID: l.AllocIDs(1), Pri: 1}})
	if err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- l.Wait(failed) }()
	<-inWrite // the round carrying failed is writing
	behind, err := l.StageDelete([]uint64{1})
	if err != nil {
		t.Fatalf("stage during the round: %v", err)
	}
	close(proceed)
	if err := <-waitErr; !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Wait for the failed round's record: %v, want ErrPoisoned", err)
	}
	for _, lsn := range []uint64{failed, behind} {
		if err := l.Wait(lsn); !errors.Is(err, ErrPoisoned) {
			t.Fatalf("Wait(%d) after the failed round: %v, want ErrPoisoned", lsn, err)
		}
	}
	if err := l.Wait(committed); err != nil {
		t.Fatalf("Wait(%d) for a record written before the failure: %v", committed, err)
	}
	if _, err := l.StageInsert([]Item{{ID: l.AllocIDs(1), Pri: 1}}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("stage after the failure: %v, want ErrPoisoned", err)
	}
	if _, err := l.StageDelete([]uint64{2}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("stage after the failure: %v, want ErrPoisoned", err)
	}
	if err := l.Close(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("close after failure: %v, want ErrPoisoned", err)
	}
}
