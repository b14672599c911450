package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
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
	u32 := func() (uint32, bool) {
		if len(b) < 4 {
			return 0, false
		}
		v := binary.BigEndian.Uint32(b)
		b = b[4:]
		return v, true
	}
	u64 := func() (uint64, bool) {
		if len(b) < 8 {
			return 0, false
		}
		v := binary.BigEndian.Uint64(b)
		b = b[8:]
		return v, true
	}
	item := func() (Item, bool) {
		var it Item
		var ok bool
		if it.ID, ok = u64(); !ok {
			return it, false
		}
		if it.Pri, ok = u32(); !ok {
			return it, false
		}
		n, ok := u32()
		if !ok || uint64(n) > uint64(len(b)) {
			return it, false
		}
		it.Value = append([]byte(nil), b[:n]...)
		b = b[n:]
		return it, true
	}
	switch r.op {
	case opInsert:
		it, ok := item()
		if !ok {
			return r, errTruncated
		}
		r.items = []Item{it}
	case opInsertBatch:
		n, ok := u32()
		if !ok || uint64(n)*16 > uint64(len(b)) {
			return r, errTruncated
		}
		r.items = make([]Item, 0, n)
		for i := uint32(0); i < n; i++ {
			it, ok := item()
			if !ok {
				return r, errTruncated
			}
			r.items = append(r.items, it)
		}
	case opDelete:
		id, ok := u64()
		if !ok {
			return r, errTruncated
		}
		r.ids = []uint64{id}
	case opDeleteBatch:
		n, ok := u32()
		if !ok || uint64(n)*8 > uint64(len(b)) {
			return r, errTruncated
		}
		r.ids = make([]uint64, 0, n)
		for i := uint32(0); i < n; i++ {
			id, ok := u64()
			if !ok {
				return r, errTruncated
			}
			r.ids = append(r.ids, id)
		}
	default:
		return r, fmt.Errorf("wal: unknown op 0x%02x", r.op)
	}
	if len(b) != 0 {
		return r, fmt.Errorf("wal: %d trailing bytes in record", len(b))
	}
	return r, nil
}

// scanSegment walks the records of one segment's bytes, calling apply
// for each valid record. It returns the byte offset just past the last
// valid record and whether the walk ended because of tail damage (a
// truncated, corrupt or zero-filled suffix) rather than a clean end of
// file. Replay stops at the first damaged record: everything after it
// is unreachable because LSNs would no longer be sequential.
func scanSegment(data []byte, apply func(record) error) (valid int, damaged bool, err error) {
	off := 0
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return off, false, nil
		}
		if len(rest) < recHeader {
			return off, true, nil
		}
		n := binary.BigEndian.Uint32(rest)
		crc := binary.BigEndian.Uint32(rest[4:8])
		if n < recMinPayload || n > MaxRecord {
			// Covers the zero-filled tail (length 0) and corrupt lengths.
			return off, true, nil
		}
		if uint64(len(rest)) < uint64(recHeader)+uint64(n) {
			return off, true, nil // torn final record
		}
		payload := rest[recHeader : recHeader+int(n)]
		if crc32.Checksum(payload, castagnoli) != crc {
			return off, true, nil // bit flip
		}
		rec, derr := decodeRecord(payload)
		if derr != nil {
			// CRC matched but the body is malformed: still tail damage
			// from replay's point of view — stop at the last good record.
			return off, true, nil
		}
		if err := apply(rec); err != nil {
			return off, false, err
		}
		off += recHeader + int(n)
	}
}
