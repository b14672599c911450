package wire

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeFrame feeds arbitrary bytes through the frame decoder and,
// when a frame decodes, through the typed payload decoders — asserting
// the decoder never panics, never over-consumes, and that whatever
// decodes re-encodes to an equivalent frame (round-trip stability).
func FuzzDecodeFrame(f *testing.F) {
	seed := [][]byte{
		AppendFrame(nil, Frame{Type: TInsert, ID: 1, Payload: Insert{Queue: "q", Item: Item{Pri: 3, Value: []byte("v")}}.Append(nil)}),
		AppendFrame(nil, Frame{Type: TInsertBatch, ID: 2, Payload: InsertBatch{Queue: "q", Items: []Item{{Pri: 1, Value: []byte("a")}, {Pri: 2, Value: []byte("bb")}}}.Append(nil)}),
		AppendFrame(nil, Frame{Type: TDeleteMin, ID: 3, Payload: QueueReq{Queue: "q"}.Append(nil)}),
		AppendFrame(nil, Frame{Type: TDeleteMinBatch, ID: 4, Payload: DeleteMinBatch{Queue: "q", Max: 16}.Append(nil)}),
		AppendFrame(nil, Frame{Type: TStats, ID: 5, Payload: QueueReq{Queue: "q"}.Append(nil)}),
		AppendFrame(nil, Frame{Type: TDrain, ID: 6, Payload: QueueReq{Queue: "q"}.Append(nil)}),
		AppendFrame(nil, Frame{Type: TInsertOK, ID: 7, Payload: InsertOK{Accepted: 1}.Append(nil)}),
		AppendFrame(nil, Frame{Type: TItem, ID: 8, Payload: AppendItem(nil, Item{Pri: 9, Value: []byte("x")})}),
		AppendFrame(nil, Frame{Type: TEmpty, ID: 9}),
		AppendFrame(nil, Frame{Type: TItems, ID: 10, Payload: Items{Items: []Item{{Pri: 0, Value: nil}}}.Append(nil)}),
		AppendFrame(nil, Frame{Type: TRetryAfter, ID: 11, Payload: RetryAfter{Millis: 5}.Append(nil)}),
		AppendFrame(nil, Frame{Type: TDrained, ID: 12, Payload: Drained{Remaining: 7}.Append(nil)}),
		AppendFrame(nil, Frame{Type: TError, ID: 13, Payload: ErrorMsg{Msg: "e"}.Append(nil)}),
		{0, 0, 0, 0},
		{0xff, 0xff, 0xff, 0xff, 1, 1},
		AppendFrame(nil, Frame{Type: TStatsReply, ID: 14, Payload: []byte(`{"size":0}`)}),
		AppendFrame(nil, Frame{Type: TWrongNode, ID: 15, Payload: WrongNode{MapVersion: 3, Owner: "n:1"}.Append(nil)}),
	}
	for _, s := range seed {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := DecodeFrame(data)
		if err != nil {
			// Bad version/flags are recoverable: the whole frame must
			// have been consumed so the caller can resync. Every other
			// error must consume nothing.
			if errors.Is(err, ErrBadVersion) || errors.Is(err, ErrBadFlags) {
				if n < 4+headerLen || n > len(data) {
					t.Fatalf("recoverable %v consumed %d of %d bytes", err, n, len(data))
				}
			} else if n != 0 {
				t.Fatalf("error %v but consumed %d bytes", err, n)
			}
			return
		}
		if n < 4+headerLen || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		// Re-encoding the decoded frame must reproduce the consumed bytes.
		if re := AppendFrame(nil, fr); !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", re, data[:n])
		}
		// Typed payload decode must not panic; when it succeeds, the
		// typed re-encode must reproduce the payload byte-for-byte.
		re, err := reencode(fr)
		if err != nil {
			if !errors.Is(err, ErrBadPayload) && !errors.Is(err, ErrUnknownType) {
				t.Fatalf("unexpected decode error: %v", err)
			}
			return
		}
		if !bytes.Equal(re, fr.Payload) {
			t.Fatalf("payload re-encode mismatch for %v:\n got %x\nwant %x", fr.Type, re, fr.Payload)
		}
	})
}

// reencode decodes f's payload with the one decoder for its type (the
// view, for a request) and encodes the result again. It fails with
// ErrUnknownType for a type no decoder serves.
func reencode(f Frame) ([]byte, error) {
	switch f.Type {
	case TInsert:
		m, err := DecodeInsertView(f.Payload)
		return Insert{Queue: string(m.Queue), Item: m.Item}.Append(nil), err
	case TInsertBatch:
		m, err := DecodeInsertBatchView(f.Payload, nil)
		return InsertBatch{Queue: string(m.Queue), Items: m.Items}.Append(nil), err
	case TDeleteMin, TStats, TDrain:
		m, err := DecodeQueueReqView(f.Payload)
		return QueueReq{Queue: string(m.Queue)}.Append(nil), err
	case TDeleteMinBatch:
		m, err := DecodeDeleteMinBatchView(f.Payload)
		return DeleteMinBatch{Queue: string(m.Queue), Max: m.Max}.Append(nil), err
	case TInsertOK:
		m, err := DecodeInsertOK(f.Payload)
		return m.Append(nil), err
	case TItem:
		m, err := DecodeItem(f.Payload)
		return AppendItem(nil, m), err
	case TEmpty:
		if len(f.Payload) != 0 {
			return nil, ErrBadPayload
		}
		return nil, nil
	case TItems:
		m, err := DecodeItems(f.Payload)
		return m.Append(nil), err
	case TRetryAfter:
		m, err := DecodeRetryAfter(f.Payload)
		return m.Append(nil), err
	case TStatsReply:
		return f.Payload, nil // opaque JSON
	case TDrained:
		m, err := DecodeDrained(f.Payload)
		return m.Append(nil), err
	case TError:
		m, err := DecodeErrorMsg(f.Payload)
		return m.Append(nil), err
	case TWrongNode:
		m, err := DecodeWrongNode(f.Payload)
		return m.Append(nil), err
	}
	return nil, ErrUnknownType
}
