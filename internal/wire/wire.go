// Package wire defines pqd's small length-prefixed binary protocol.
//
// Every message is one frame:
//
//	uint32  payload length (big-endian) — bytes after this field
//	uint8   protocol version (currently 1)
//	uint8   frame type
//	uint16  flags (reserved, must be zero)
//	uint32  request id (echoed verbatim in the response)
//	...     type-specific payload
//
// Requests and responses share the framing; clients pipeline requests
// freely and match responses by request id (responses to one
// connection's requests may interleave but each request gets exactly
// one response). Integers are big-endian; strings are uint16-length-
// prefixed, byte blobs uint32-length-prefixed.
//
// The protocol is versioned per frame so a server can serve old clients
// during a rollout: a frame with an unknown version, nonzero reserved
// flags, or an unknown type yields a TError response, never a closed
// connection. This works because the version byte sits inside the
// length-delimited region: FrameReader and DecodeFrame consume the whole
// frame before reporting ErrBadVersion/ErrBadFlags, so the stream stays
// in sync and the server can reply and keep reading.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Version is the protocol version this package speaks.
const Version = 1

// MaxFrame bounds a frame's payload length; DecodeFrame and FrameReader
// reject anything larger so a corrupt or hostile length prefix cannot
// force an unbounded allocation.
const MaxFrame = 1 << 20

// headerLen is the fixed frame header after the length prefix:
// version(1) + type(1) + flags(2) + request id(4).
const headerLen = 8

// MaxPayload bounds a frame's type-specific payload: MaxFrame minus the
// fixed header. Writers must keep encoded payloads at or below this or
// the peer's FrameReader rejects the frame as ErrTooLarge.
const MaxPayload = MaxFrame - headerLen

// MaxValue bounds one item's value bytes. It is strictly smaller than
// MaxPayload so that any admitted item — with priority tag, blob length
// prefix, and batch count — always fits a TItem or single-item TItems
// response frame; servers reject larger values at insert time rather
// than discovering at delete-min time that the item cannot be returned.
const MaxValue = MaxFrame - 64

// Type identifies a frame's meaning.
type Type uint8

// Request frame types.
const (
	TInsert         Type = 0x01 // Insert payload
	TInsertBatch    Type = 0x02 // InsertBatch payload
	TDeleteMin      Type = 0x03 // queue name only
	TDeleteMinBatch Type = 0x04 // DeleteMinBatch payload
	TStats          Type = 0x05 // queue name only
	TDrain          Type = 0x06 // queue name only
)

// Response frame types.
const (
	TInsertOK   Type = 0x81 // InsertOK payload
	TItem       Type = 0x82 // Item payload (delete-min hit)
	TEmpty      Type = 0x83 // no payload (delete-min miss)
	TItems      Type = 0x84 // Items payload (delete-min batch)
	TRetryAfter Type = 0x85 // RetryAfter payload (admission shed)
	TStatsReply Type = 0x86 // opaque JSON payload
	TDrained    Type = 0x87 // Drained payload
	TError      Type = 0x88 // ErrorMsg payload
	TWrongNode  Type = 0x89 // WrongNode payload (cluster misroute NACK)
)

func (t Type) String() string {
	switch t {
	case TInsert:
		return "INSERT"
	case TInsertBatch:
		return "INSERT_BATCH"
	case TDeleteMin:
		return "DELETE_MIN"
	case TDeleteMinBatch:
		return "DELETE_MIN_BATCH"
	case TStats:
		return "STATS"
	case TDrain:
		return "DRAIN"
	case TInsertOK:
		return "INSERT_OK"
	case TItem:
		return "ITEM"
	case TEmpty:
		return "EMPTY"
	case TItems:
		return "ITEMS"
	case TRetryAfter:
		return "RETRY_AFTER"
	case TStatsReply:
		return "STATS_REPLY"
	case TDrained:
		return "DRAINED"
	case TError:
		return "ERROR"
	case TWrongNode:
		return "WRONG_NODE"
	}
	return fmt.Sprintf("Type(0x%02x)", uint8(t))
}

// Frame is one decoded protocol frame.
type Frame struct {
	Version uint8
	Type    Type
	ID      uint32
	Payload []byte
}

// Protocol decode errors.
var (
	ErrShort       = errors.New("wire: truncated frame")
	ErrTooLarge    = fmt.Errorf("wire: frame exceeds %d bytes", MaxFrame)
	ErrBadVersion  = errors.New("wire: unsupported protocol version")
	ErrBadFlags    = errors.New("wire: nonzero reserved flags")
	ErrBadPayload  = errors.New("wire: malformed payload")
	ErrUnknownType = errors.New("wire: unknown frame type")
)

// AppendFrame appends f's encoding to dst and returns the result.
func AppendFrame(dst []byte, f Frame) []byte {
	v := f.Version
	if v == 0 {
		v = Version
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(headerLen+len(f.Payload)))
	dst = append(dst, v, uint8(f.Type))
	dst = binary.BigEndian.AppendUint16(dst, 0) // flags
	dst = binary.BigEndian.AppendUint32(dst, f.ID)
	return append(dst, f.Payload...)
}

// BeginFrame appends a frame header for (t, id) to dst with a
// placeholder length prefix and returns the grown slice plus the
// offset of that prefix. The caller appends the payload directly after
// it (with the message's Append method) and then calls EndFrame with
// the same offset to patch the length in. Encoding straight into a
// connection's write scratch this way costs zero copies and zero
// allocations, unlike building a payload and passing it to
// AppendFrame.
func BeginFrame(dst []byte, t Type, id uint32) ([]byte, int) {
	off := len(dst)
	dst = append(dst, 0, 0, 0, 0, Version, uint8(t), 0, 0)
	return binary.BigEndian.AppendUint32(dst, id), off
}

// EndFrame patches the length prefix of a frame started by BeginFrame
// at off, now that the payload has been appended, and returns dst.
func EndFrame(dst []byte, off int) []byte {
	binary.BigEndian.PutUint32(dst[off:], uint32(len(dst)-off-4))
	return dst
}

// AppendFrameHeader appends a complete frame header for a payload of
// exactly payloadLen bytes. For writers that send the payload in
// separate writes after the header (a buffered writer given item values
// one Write at a time), where BeginFrame/EndFrame's patch-after-append
// cannot see the payload bytes.
func AppendFrameHeader(dst []byte, t Type, id uint32, payloadLen int) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(headerLen+payloadLen))
	dst = append(dst, Version, uint8(t), 0, 0)
	return binary.BigEndian.AppendUint32(dst, id)
}

// checkHeader is the one frame-header check, shared by DecodeFrame and
// FrameReader.ReadFrame. b starts with a frame's 4-byte length prefix.
// It checks the length bounds and returns the payload size; a negative
// size comes with ErrTooLarge or ErrBadPayload, which leave the stream
// unusable. If b is shorter than the whole 12-byte header it stops there
// with ErrShort. Otherwise it returns the header fields and checks the
// version and flags: ErrBadVersion and ErrBadFlags are recoverable,
// since the size says how many payload bytes to skip to resync.
func checkHeader(b []byte) (Frame, int, error) {
	n := binary.BigEndian.Uint32(b)
	if n > MaxFrame {
		return Frame{}, -1, ErrTooLarge
	}
	if n < headerLen {
		return Frame{}, -1, fmt.Errorf("%w: length %d below header size", ErrBadPayload, n)
	}
	size := int(n) - headerLen
	if len(b) < 4+headerLen {
		return Frame{}, size, ErrShort
	}
	f := Frame{Version: b[4], Type: Type(b[5]), ID: binary.BigEndian.Uint32(b[8:12])}
	if f.Version != Version {
		return f, size, ErrBadVersion
	}
	if binary.BigEndian.Uint16(b[6:8]) != 0 {
		return f, size, ErrBadFlags
	}
	return f, size, nil
}

// DecodeFrame decodes one frame from the front of buf, returning the
// frame and the number of bytes consumed. ErrShort means more input is
// needed. ErrBadVersion and ErrBadFlags are recoverable: the whole
// frame was consumed (the count is returned alongside the header fields
// so a server can reply TError by id and resync on the next frame). Any
// other error means the stream is unrecoverable. The returned payload
// aliases buf.
func DecodeFrame(buf []byte) (Frame, int, error) {
	if len(buf) < 4 {
		return Frame{}, 0, ErrShort
	}
	f, size, err := checkHeader(buf)
	if size < 0 {
		return Frame{}, 0, err
	}
	total := 4 + headerLen + size
	if len(buf) < total {
		return Frame{}, 0, ErrShort
	}
	if err != nil {
		return f, total, err
	}
	f.Payload = buf[4+headerLen : total]
	return f, total, nil
}

// WriteFrame writes f to w in one Write call. The encode buffer comes
// from the frame pool, so steady-state calls do not allocate; w must
// not retain the bytes past the Write call (io.Writer's contract).
func WriteFrame(w io.Writer, f Frame) error {
	buf := AppendFrame(GetBuf(4+headerLen+len(f.Payload)), f)
	_, err := w.Write(buf)
	PutBuf(buf)
	return err
}

// A FrameReader reads one frame at a time from a stream without
// per-frame allocation: the header scratch persists across calls and
// payloads come from the frame pool. It is not safe for concurrent use.
type FrameReader struct {
	hdr [4 + headerLen]byte
}

// ReadFrame reads exactly one frame from r. The returned Frame's Payload
// is owned by the caller, who should hand it back with PutBuf once the
// request no longer needs it. On ErrBadVersion or ErrBadFlags the frame
// (its length-delimited payload included) has been fully consumed from r
// and the returned Frame carries the header fields, so a server can
// reply TError by id and keep reading the connection; any other error
// leaves the stream unusable.
func (fr *FrameReader) ReadFrame(r io.Reader) (Frame, error) {
	if _, err := io.ReadFull(r, fr.hdr[:]); err != nil {
		return Frame{}, err
	}
	f, size, ferr := checkHeader(fr.hdr[:])
	switch {
	case size < 0:
		return Frame{}, ferr
	case ferr != nil:
		// Drain the payload so the stream resyncs on the next frame.
		if _, err := io.CopyN(io.Discard, r, int64(size)); err != nil {
			return Frame{}, unexpectedEOF(err)
		}
		return f, ferr
	case size > 0:
		buf := GetBuf(size)
		f.Payload = buf[:size]
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			PutBuf(buf)
			return Frame{}, unexpectedEOF(err)
		}
	}
	return f, nil
}

// unexpectedEOF reports an EOF inside a frame as io.ErrUnexpectedEOF.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
