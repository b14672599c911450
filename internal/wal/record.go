package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// On-disk record framing. Every record in a segment is:
//
//	uint32  payload length (big-endian)
//	uint32  CRC32C of the payload (Castagnoli)
//	...     payload
//
// and every payload starts with:
//
//	uint8   op code
//	uint64  LSN (monotone across segments, never reset)
//
// followed by the op-specific body. The length field of a valid record
// is always at least recMinPayload bytes — a zero-filled tail therefore
// cannot masquerade as an empty record whose empty-payload CRC (zero)
// would match, and replay treats any undersized length as end-of-log.

// Op codes. They mirror the wire protocol's logical operations: the log
// records what the service promised, not how a particular algorithm
// stored it, which is what lets replay reconstruct any algorithm's
// queue.
const (
	opInsert      = 0x01 // one item: id, pri, value
	opInsertBatch = 0x02 // n × (id, pri, value)
	opDelete      = 0x03 // one id
	opDeleteBatch = 0x04 // n × id
)

// MaxRecord bounds one record's payload so a corrupt length prefix
// cannot force an unbounded allocation during replay. It comfortably
// holds the largest batch a single wire frame can carry.
const MaxRecord = 8 << 20

// recMinPayload is op(1) + lsn(8) + at least one more body byte's worth
// of structure; the smallest real record (opDelete) is 17 bytes.
const recMinPayload = 9

// recHeader is the length + CRC prefix before the payload.
const recHeader = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Item is one durable queue entry: the server-assigned durable id, the
// global priority, and the value bytes.
type Item struct {
	ID    uint64
	Pri   uint32
	Value []byte
}

// appendInsert frames one insert record at lsn onto buf.
func appendInsert(buf []byte, lsn uint64, items []Item) []byte {
	start := len(buf)
	if len(items) == 1 {
		buf = beginRecord(buf, opInsert, lsn)
	} else {
		buf = beginRecord(buf, opInsertBatch, lsn)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(items)))
	}
	for _, it := range items {
		buf = binary.BigEndian.AppendUint64(buf, it.ID)
		buf = binary.BigEndian.AppendUint32(buf, it.Pri)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(it.Value)))
		buf = append(buf, it.Value...)
	}
	return endRecord(buf, start)
}

// appendDelete frames one delete record at lsn onto buf.
func appendDelete(buf []byte, lsn uint64, ids []uint64) []byte {
	start := len(buf)
	if len(ids) == 1 {
		buf = beginRecord(buf, opDelete, lsn)
	} else {
		buf = beginRecord(buf, opDeleteBatch, lsn)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(ids)))
	}
	for _, id := range ids {
		buf = binary.BigEndian.AppendUint64(buf, id)
	}
	return endRecord(buf, start)
}

// beginRecord reserves the length+CRC header and starts the payload
// with the op code and LSN.
func beginRecord(buf []byte, op uint8, lsn uint64) []byte {
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0, op)
	return binary.BigEndian.AppendUint64(buf, lsn)
}

// endRecord fills in the header of the record that begins at start,
// now that its payload runs to the end of buf.
func endRecord(buf []byte, start int) []byte {
	payload := buf[start+recHeader:]
	binary.BigEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, castagnoli))
	return buf
}

// record is one decoded log record.
type record struct {
	op  uint8
	lsn uint64
	// items is populated for insert ops, ids for delete ops.
	items []Item
	ids   []uint64
}

// errTruncated marks a payload whose body does not match its own
// structure — during replay it is treated like any other tail damage.
var errTruncated = fmt.Errorf("wal: truncated record body")

// decodeRecord parses one payload (after the length/CRC prefix has been
// validated).
func decodeRecord(p []byte) (record, error) {
	if len(p) < recMinPayload {
		return record{}, errTruncated
	}
	r := record{op: p[0], lsn: binary.BigEndian.Uint64(p[1:9])}
	b := p[9:]
	n := uint32(1) // a batch op carries its count first
	if r.op == opInsertBatch || r.op == opDeleteBatch {
		if len(b) < 4 {
			return r, errTruncated
		}
		n, b = binary.BigEndian.Uint32(b), b[4:]
	}
	switch r.op {
	case opInsert, opInsertBatch:
		if uint64(n)*16 > uint64(len(b)) {
			return r, errTruncated
		}
		r.items = make([]Item, n)
		for i := range r.items {
			var ok bool
			if r.items[i], b, ok = cutItem(b); !ok {
				return r, errTruncated
			}
		}
	case opDelete, opDeleteBatch:
		if uint64(n)*8 > uint64(len(b)) {
			return r, errTruncated
		}
		r.ids = make([]uint64, n)
		for i := range r.ids {
			r.ids[i], b = binary.BigEndian.Uint64(b), b[8:]
		}
	default:
		return r, fmt.Errorf("wal: unknown op 0x%02x", r.op)
	}
	if len(b) != 0 {
		return r, fmt.Errorf("wal: %d trailing bytes in record", len(b))
	}
	return r, nil
}

// cutItem decodes one (id, pri, vlen, value) entry — the layout of
// insert records and snapshot files alike — from the front of b,
// copying the value, and returns the rest of b.
func cutItem(b []byte) (it Item, rest []byte, ok bool) {
	if len(b) < 16 {
		return it, b, false
	}
	it = Item{ID: binary.BigEndian.Uint64(b), Pri: binary.BigEndian.Uint32(b[8:])}
	n := binary.BigEndian.Uint32(b[12:])
	if uint64(n) > uint64(len(b)-16) {
		return it, b, false
	}
	it.Value = append([]byte(nil), b[16:16+n]...)
	return it, b[16+n:], true
}

// scanSegment walks the records of one segment, read from r, calling
// apply for each valid record. It returns the byte offset just past the
// last valid record and whether the walk ended because of tail damage (a
// truncated, corrupt or zero-filled suffix) rather than a clean end of
// file. Replay stops at the first damaged record: everything after it
// is unreachable because LSNs would no longer be sequential. It holds
// one record at a time, never the whole segment.
func scanSegment(r io.Reader, apply func(record) error) (valid int64, damaged bool, err error) {
	var hdr [recHeader]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err == io.EOF {
			return valid, false, nil
		} else if err != nil {
			return torn(valid, err)
		}
		n := binary.BigEndian.Uint32(hdr[:])
		crc := binary.BigEndian.Uint32(hdr[4:])
		if n < recMinPayload || n > MaxRecord {
			// Covers the zero-filled tail (length 0) and corrupt lengths.
			return valid, true, nil
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(r, payload); err != nil {
			return torn(valid, err)
		}
		if crc32.Checksum(payload, castagnoli) != crc {
			return valid, true, nil // bit flip
		}
		rec, derr := decodeRecord(payload)
		if derr != nil {
			// CRC matched but the body is malformed: still tail damage
			// from replay's point of view — stop at the last good record.
			return valid, true, nil
		}
		if err := apply(rec); err != nil {
			return valid, false, err
		}
		valid += recHeader + int64(n)
	}
}

// torn reports a read that ended inside a record as tail damage (a torn
// final record), and any other read error as an error.
func torn(valid int64, err error) (int64, bool, error) {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return valid, true, nil
	}
	return valid, false, err
}

// scanFile is scanSegment over the segment file at path, read through a
// bounded buffer.
func scanFile(path string, apply func(record) error) (valid int64, damaged bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	return scanSegment(bufio.NewReaderSize(f, 64<<10), apply)
}
