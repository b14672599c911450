package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Snapshot files capture the full live-item set at one log position so
// boot can skip replaying history the snapshot already contains. The
// format is:
//
//	8 bytes  magic "PQSNAP1\n"
//	uint64   LSN the snapshot covers (all records <= LSN are included)
//	uint64   next durable item id
//	uint32   item count
//	count ×  (uint64 id, uint32 pri, uint32 vlen, value bytes)
//	uint32   CRC32C over everything after the magic
//
// A snapshot is written to a .tmp file, fsynced, and renamed into
// place, so a crash mid-snapshot leaves at most an ignorable temp file;
// boot picks the newest snapshot whose CRC validates and falls back to
// the previous one otherwise (segment retention keeps the log tail the
// older snapshot needs, see Log retention).

var snapMagic = []byte("PQSNAP1\n")

// snapName returns the snapshot filename for a covered LSN; lexical
// order equals LSN order.
func snapName(lsn uint64) string { return fmt.Sprintf("snap-%016x.snap", lsn) }

// parseSnapName extracts the covered LSN, reporting ok=false for
// foreign files.
func parseSnapName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".snap") {
		return 0, false
	}
	v, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".snap"), 16, 64)
	return v, err == nil
}

// encodeSnapshot builds the full file image.
func encodeSnapshot(lsn, nextID uint64, items []Item) []byte {
	size := len(snapMagic) + 8 + 8 + 4 + 4
	for _, it := range items {
		size += 16 + len(it.Value)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, snapMagic...)
	buf = binary.BigEndian.AppendUint64(buf, lsn)
	buf = binary.BigEndian.AppendUint64(buf, nextID)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(items)))
	for _, it := range items {
		buf = binary.BigEndian.AppendUint64(buf, it.ID)
		buf = binary.BigEndian.AppendUint32(buf, it.Pri)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(it.Value)))
		buf = append(buf, it.Value...)
	}
	crc := crc32.Checksum(buf[len(snapMagic):], castagnoli)
	return binary.BigEndian.AppendUint32(buf, crc)
}

// decodeSnapshot parses and validates one snapshot file image.
func decodeSnapshot(data []byte) (lsn, nextID uint64, items []Item, err error) {
	if len(data) < len(snapMagic)+24 || string(data[:len(snapMagic)]) != string(snapMagic) {
		return 0, 0, nil, fmt.Errorf("wal: not a snapshot file")
	}
	body := data[len(snapMagic) : len(data)-4]
	crc := binary.BigEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, castagnoli) != crc {
		return 0, 0, nil, fmt.Errorf("wal: snapshot CRC mismatch")
	}
	lsn = binary.BigEndian.Uint64(body)
	nextID = binary.BigEndian.Uint64(body[8:])
	count := binary.BigEndian.Uint32(body[16:])
	b := body[20:]
	if uint64(count)*16 > uint64(len(b)) {
		return 0, 0, nil, fmt.Errorf("wal: snapshot item count %d exceeds file size", count)
	}
	items = make([]Item, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(b) < 16 {
			return 0, 0, nil, fmt.Errorf("wal: snapshot truncated at item %d", i)
		}
		it := Item{ID: binary.BigEndian.Uint64(b), Pri: binary.BigEndian.Uint32(b[8:])}
		n := binary.BigEndian.Uint32(b[12:])
		b = b[16:]
		if uint64(n) > uint64(len(b)) {
			return 0, 0, nil, fmt.Errorf("wal: snapshot truncated at item %d value", i)
		}
		it.Value = append([]byte(nil), b[:n]...)
		b = b[n:]
		items = append(items, it)
	}
	if len(b) != 0 {
		return 0, 0, nil, fmt.Errorf("wal: %d trailing snapshot bytes", len(b))
	}
	return lsn, nextID, items, nil
}

// writeSnapshotFile durably writes one snapshot into dir.
func writeSnapshotFile(dir string, lsn, nextID uint64, items []Item) error {
	tmp := filepath.Join(dir, snapName(lsn)+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(encodeSnapshot(lsn, nextID, items)); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, snapName(lsn))); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so renames and unlinks are durable; errors
// are ignored (some filesystems refuse directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// listSnapshots returns the snapshot LSNs present in dir, ascending.
func listSnapshots(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var lsns []uint64
	for _, e := range ents {
		if lsn, ok := parseSnapName(e.Name()); ok {
			lsns = append(lsns, lsn)
		}
	}
	sort.Slice(lsns, func(i, j int) bool { return lsns[i] < lsns[j] })
	return lsns, nil
}

// loadNewestSnapshot reads the newest snapshot that validates, falling
// back to older ones when the newest is damaged. With no usable
// snapshot it returns lsn 0 and nextID 1 (durable ids start at 1).
func loadNewestSnapshot(dir string, logger *slog.Logger) (lsn, nextID uint64, items []Item) {
	lsns, err := listSnapshots(dir)
	if err != nil {
		return 0, 1, nil
	}
	for i := len(lsns) - 1; i >= 0; i-- {
		data, err := os.ReadFile(filepath.Join(dir, snapName(lsns[i])))
		if err == nil {
			var derr error
			if lsn, nextID, items, derr = decodeSnapshot(data); derr == nil {
				return lsn, nextID, items
			}
			err = derr
		}
		logger.Warn("wal: snapshot unusable, falling back", "snapshot", snapName(lsns[i]), "lsn", lsns[i], "err", err)
	}
	return 0, 1, nil
}
