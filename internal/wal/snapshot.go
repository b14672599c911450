package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
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

// snapFormat names the snapshot covering an LSN; lexical order equals
// LSN order.
const snapFormat = "snap-%016x.snap"

func snapName(lsn uint64) string { return fmt.Sprintf(snapFormat, lsn) }

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

// decodeSnapshot parses and validates one snapshot file image into the
// live set it holds, keyed by durable id.
func decodeSnapshot(data []byte) (lsn, nextID uint64, live map[uint64]Item, err error) {
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
	live = make(map[uint64]Item, count)
	for i := uint32(0); i < count; i++ {
		var it Item
		var ok bool
		if it, b, ok = cutItem(b); !ok {
			return 0, 0, nil, fmt.Errorf("wal: snapshot truncated at item %d", i)
		}
		live[it.ID] = it
	}
	if len(b) != 0 {
		return 0, 0, nil, fmt.Errorf("wal: %d trailing snapshot bytes", len(b))
	}
	return lsn, nextID, live, nil
}

// writeSnapshotFile durably writes one snapshot into dir.
func writeSnapshotFile(dir string, lsn, nextID uint64, items []Item) error {
	tmp := filepath.Join(dir, snapName(lsn)+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err == nil {
		if _, err = f.Write(encodeSnapshot(lsn, nextID, items)); err == nil {
			err = f.Sync()
		}
		err = errors.Join(err, f.Close())
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(dir, snapName(lsn)))
	}
	if err != nil {
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

// listLSNs returns, ascending, the LSNs of the files in dir named by
// format (segFormat or snapFormat); foreign and .tmp files are ignored.
func listLSNs(dir, format string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var lsns []uint64
	for _, e := range ents {
		var lsn uint64
		if _, err := fmt.Sscanf(e.Name(), format, &lsn); err == nil && fmt.Sprintf(format, lsn) == e.Name() {
			lsns = append(lsns, lsn)
		}
	}
	sort.Slice(lsns, func(i, j int) bool { return lsns[i] < lsns[j] })
	return lsns, nil
}

// loadNewestSnapshot reads the newest snapshot that validates, falling
// back to older ones when the newest is damaged. With no usable
// snapshot it returns lsn 0, nextID 1 (durable ids start at 1) and an
// empty live set.
func loadNewestSnapshot(dir string, logger *slog.Logger) (lsn, nextID uint64, live map[uint64]Item) {
	lsns, _ := listLSNs(dir, snapFormat) // an unreadable dir fails replay, which lists it too
	for i := len(lsns) - 1; i >= 0; i-- {
		data, err := os.ReadFile(filepath.Join(dir, snapName(lsns[i])))
		if err == nil {
			var derr error
			if lsn, nextID, live, derr = decodeSnapshot(data); derr == nil {
				return lsn, nextID, live
			}
			err = derr
		}
		logger.Warn("wal: snapshot unusable, falling back", "snapshot", snapName(lsns[i]), "lsn", lsns[i], "err", err)
	}
	return 0, 1, map[uint64]Item{}
}
