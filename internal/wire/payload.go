package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Payload encoding primitives: strings carry a uint16 length prefix
// (queue names), byte blobs a uint32 prefix (values), integers are
// big-endian. Each message type has an Append method and one decoder
// (a view, below, for requests); decoders reject trailing garbage so a
// frame means exactly one message.

// MaxName is the longest string, such as a queue name, a payload can
// carry: strings have a uint16 length prefix.
const MaxName = math.MaxUint16

// MaxBatchItems bounds the item count a single batch frame may carry,
// keeping worst-case decode allocation proportional to the frame size.
const MaxBatchItems = 1 << 16

type cursor struct {
	b []byte
}

func (c *cursor) u16() (uint16, error) {
	if len(c.b) < 2 {
		return 0, ErrBadPayload
	}
	v := binary.BigEndian.Uint16(c.b)
	c.b = c.b[2:]
	return v, nil
}

func (c *cursor) u32() (uint32, error) {
	if len(c.b) < 4 {
		return 0, ErrBadPayload
	}
	v := binary.BigEndian.Uint32(c.b)
	c.b = c.b[4:]
	return v, nil
}

func (c *cursor) u64() (uint64, error) {
	if len(c.b) < 8 {
		return 0, ErrBadPayload
	}
	v := binary.BigEndian.Uint64(c.b)
	c.b = c.b[8:]
	return v, nil
}

func (c *cursor) str() (string, error) {
	n, err := c.u16()
	if err != nil {
		return "", err
	}
	if len(c.b) < int(n) {
		return "", ErrBadPayload
	}
	s := string(c.b[:n])
	c.b = c.b[n:]
	return s, nil
}

// strBytes is str without the string allocation: the returned bytes
// alias the payload.
func (c *cursor) strBytes() ([]byte, error) {
	n, err := c.u16()
	if err != nil {
		return nil, err
	}
	if len(c.b) < int(n) {
		return nil, ErrBadPayload
	}
	v := c.b[:n:n]
	c.b = c.b[n:]
	return v, nil
}

func (c *cursor) blob() ([]byte, error) {
	n, err := c.u32()
	if err != nil {
		return nil, err
	}
	if uint64(n) > uint64(len(c.b)) {
		return nil, ErrBadPayload
	}
	v := c.b[:n:n]
	c.b = c.b[n:]
	return v, nil
}

func (c *cursor) end() error {
	if len(c.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadPayload, len(c.b))
	}
	return nil
}

// appendStr cuts s to MaxName bytes. Only error text may be that long:
// the client and the server refuse longer queue names before encoding.
func appendStr(dst []byte, s string) []byte {
	if len(s) > MaxName {
		s = s[:MaxName]
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

func appendBlob(dst, b []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

// Item is one (priority, value) pair.
type Item struct {
	Pri   uint32
	Value []byte
}

// Insert is the TInsert request payload.
type Insert struct {
	Queue string
	Item  Item
}

func (m Insert) Append(dst []byte) []byte {
	dst = appendStr(dst, m.Queue)
	dst = binary.BigEndian.AppendUint32(dst, m.Item.Pri)
	return appendBlob(dst, m.Item.Value)
}

// InsertBatch is the TInsertBatch request payload. The server admits a
// prefix of Items (in order) and reports how many in InsertOK.
type InsertBatch struct {
	Queue string
	Items []Item
}

func (m InsertBatch) Append(dst []byte) []byte {
	dst = appendStr(dst, m.Queue)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Items)))
	for _, it := range m.Items {
		dst = binary.BigEndian.AppendUint32(dst, it.Pri)
		dst = appendBlob(dst, it.Value)
	}
	return dst
}

// QueueReq is the shared payload of TDeleteMin, TStats and TDrain:
// just a queue name.
type QueueReq struct {
	Queue string
}

func (m QueueReq) Append(dst []byte) []byte { return appendStr(dst, m.Queue) }

// DeleteMinBatch is the TDeleteMinBatch request payload: remove up to
// Max smallest-priority items in one round trip.
type DeleteMinBatch struct {
	Queue string
	Max   uint32
}

func (m DeleteMinBatch) Append(dst []byte) []byte {
	dst = appendStr(dst, m.Queue)
	return binary.BigEndian.AppendUint32(dst, m.Max)
}

// InsertOK is the TInsertOK response payload: the first Accepted items
// of the request were admitted; Rejected were shed by admission
// control and should be retried after RetryAfterMillis.
type InsertOK struct {
	Accepted         uint32
	Rejected         uint32
	RetryAfterMillis uint32
}

func (m InsertOK) Append(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, m.Accepted)
	dst = binary.BigEndian.AppendUint32(dst, m.Rejected)
	return binary.BigEndian.AppendUint32(dst, m.RetryAfterMillis)
}

func DecodeInsertOK(p []byte) (InsertOK, error) {
	c := cursor{p}
	var m InsertOK
	var err error
	if m.Accepted, err = c.u32(); err != nil {
		return m, err
	}
	if m.Rejected, err = c.u32(); err != nil {
		return m, err
	}
	if m.RetryAfterMillis, err = c.u32(); err != nil {
		return m, err
	}
	return m, c.end()
}

// AppendItem encodes the TItem response payload (one Item).
func AppendItem(dst []byte, it Item) []byte {
	dst = binary.BigEndian.AppendUint32(dst, it.Pri)
	return appendBlob(dst, it.Value)
}

func DecodeItem(p []byte) (Item, error) {
	c := cursor{p}
	var it Item
	var err error
	if it.Pri, err = c.u32(); err != nil {
		return it, err
	}
	if it.Value, err = c.blob(); err != nil {
		return it, err
	}
	return it, c.end()
}

// Items is the TItems response payload (delete-min batch results; may
// be empty if the queue appeared empty).
type Items struct {
	Items []Item
}

func (m Items) Append(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Items)))
	for _, it := range m.Items {
		dst = AppendItem(dst, it)
	}
	return dst
}

func DecodeItems(p []byte) (Items, error) {
	c := cursor{p}
	var m Items
	n, err := c.u32()
	if err != nil {
		return m, err
	}
	if n > MaxBatchItems {
		return m, fmt.Errorf("%w: batch of %d items", ErrBadPayload, n)
	}
	if uint64(n)*8 > uint64(len(c.b)) {
		return m, ErrBadPayload
	}
	m.Items = make([]Item, n)
	for i := range m.Items {
		if m.Items[i].Pri, err = c.u32(); err != nil {
			return m, err
		}
		if m.Items[i].Value, err = c.blob(); err != nil {
			return m, err
		}
	}
	return m, c.end()
}

// RetryAfter is the TRetryAfter response payload: the request was shed
// by admission control; try again after Millis (plus client jitter).
type RetryAfter struct {
	Millis uint32
}

func (m RetryAfter) Append(dst []byte) []byte {
	return binary.BigEndian.AppendUint32(dst, m.Millis)
}

func DecodeRetryAfter(p []byte) (RetryAfter, error) {
	c := cursor{p}
	var m RetryAfter
	var err error
	if m.Millis, err = c.u32(); err != nil {
		return m, err
	}
	return m, c.end()
}

// Drained is the TDrained response payload: the queue stopped admitting
// inserts; Remaining items were still queued when draining began.
type Drained struct {
	Remaining uint64
}

func (m Drained) Append(dst []byte) []byte {
	return binary.BigEndian.AppendUint64(dst, m.Remaining)
}

func DecodeDrained(p []byte) (Drained, error) {
	c := cursor{p}
	var m Drained
	var err error
	if m.Remaining, err = c.u64(); err != nil {
		return m, err
	}
	return m, c.end()
}

// ErrorMsg is the TError response payload.
type ErrorMsg struct {
	Msg string
}

func (m ErrorMsg) Append(dst []byte) []byte { return appendStr(dst, m.Msg) }

func DecodeErrorMsg(p []byte) (ErrorMsg, error) {
	c := cursor{p}
	var m ErrorMsg
	var err error
	if m.Msg, err = c.str(); err != nil {
		return m, err
	}
	return m, c.end()
}

// Decode views: the request decoders, allocation-free for the serving
// hot path. Queue names come back as []byte and values alias the frame
// payload, so a view is valid only while the payload buffer is —
// anything that outlives the frame (an item going into the queue) must
// be copied by the caller, and the payload must not be recycled until
// the view is dead.

// InsertView is a decoded Insert: Queue and Item.Value alias the
// payload.
type InsertView struct {
	Queue []byte
	Item  Item
}

func DecodeInsertView(p []byte) (InsertView, error) {
	c := cursor{p}
	var m InsertView
	var err error
	if m.Queue, err = c.strBytes(); err != nil {
		return m, err
	}
	if m.Item.Pri, err = c.u32(); err != nil {
		return m, err
	}
	if m.Item.Value, err = c.blob(); err != nil {
		return m, err
	}
	return m, c.end()
}

// InsertBatchView is a decoded InsertBatch: Items lands in the
// caller's scratch slice (grown as needed and returned), Queue
// and every value alias the payload.
type InsertBatchView struct {
	Queue []byte
	Items []Item
}

func DecodeInsertBatchView(p []byte, scratch []Item) (InsertBatchView, error) {
	c := cursor{p}
	m := InsertBatchView{Items: scratch[:0]}
	var err error
	if m.Queue, err = c.strBytes(); err != nil {
		return m, err
	}
	n, err := c.u32()
	if err != nil {
		return m, err
	}
	if n > MaxBatchItems {
		return m, fmt.Errorf("%w: batch of %d items", ErrBadPayload, n)
	}
	if uint64(n)*8 > uint64(len(c.b)) {
		return m, ErrBadPayload
	}
	for i := uint32(0); i < n; i++ {
		var it Item
		if it.Pri, err = c.u32(); err != nil {
			return m, err
		}
		if it.Value, err = c.blob(); err != nil {
			return m, err
		}
		m.Items = append(m.Items, it)
	}
	return m, c.end()
}

// QueueReqView is a decoded QueueReq; Queue aliases the payload.
type QueueReqView struct {
	Queue []byte
}

func DecodeQueueReqView(p []byte) (QueueReqView, error) {
	c := cursor{p}
	var m QueueReqView
	var err error
	if m.Queue, err = c.strBytes(); err != nil {
		return m, err
	}
	return m, c.end()
}

// DeleteMinBatchView is a decoded DeleteMinBatch; Queue aliases the
// payload.
type DeleteMinBatchView struct {
	Queue []byte
	Max   uint32
}

func DecodeDeleteMinBatchView(p []byte) (DeleteMinBatchView, error) {
	c := cursor{p}
	var m DeleteMinBatchView
	var err error
	if m.Queue, err = c.strBytes(); err != nil {
		return m, err
	}
	if m.Max, err = c.u32(); err != nil {
		return m, err
	}
	return m, c.end()
}

// ItemsView walks a TItems payload without allocating. Next returns
// each element still encoded, and an encoded element is a TItem
// payload, so a caller can hand the elements on as single-item answers.
type ItemsView struct {
	Len int // elements not yet returned by Next
	c   cursor
}

func DecodeItemsView(p []byte) (ItemsView, error) {
	c := cursor{p}
	n, err := c.u32()
	if err != nil {
		return ItemsView{}, err
	}
	if n > MaxBatchItems {
		return ItemsView{}, fmt.Errorf("%w: batch of %d items", ErrBadPayload, n)
	}
	if uint64(n)*8 > uint64(len(c.b)) {
		return ItemsView{}, ErrBadPayload
	}
	if n == 0 {
		err = c.end()
	}
	return ItemsView{Len: int(n), c: c}, err
}

// Next returns the next element, aliasing the payload. Call it only
// while Len > 0; it fails on a malformed element and, after the last
// one, on trailing bytes.
func (v *ItemsView) Next() ([]byte, error) {
	start := v.c.b
	if _, err := v.c.u32(); err != nil {
		return nil, err
	}
	if _, err := v.c.blob(); err != nil {
		return nil, err
	}
	v.Len--
	elem := start[: len(start)-len(v.c.b) : len(start)-len(v.c.b)]
	if v.Len == 0 {
		return elem, v.c.end()
	}
	return elem, nil
}
