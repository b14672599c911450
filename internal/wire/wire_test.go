package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Type: TInsert, ID: 1, Payload: Insert{Queue: "q", Item: Item{Pri: 3, Value: []byte("v")}}.Append(nil)},
		{Type: TDeleteMin, ID: 2, Payload: QueueReq{Queue: "q"}.Append(nil)},
		{Type: TEmpty, ID: 3},
		{Type: TError, ID: 4, Payload: ErrorMsg{Msg: "boom"}.Append(nil)},
	}
	var buf []byte
	for _, f := range frames {
		buf = AppendFrame(buf, f)
	}
	// Decode back from the concatenated stream.
	for i, want := range frames {
		f, n, err := DecodeFrame(buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		buf = buf[n:]
		if f.Type != want.Type || f.ID != want.ID || !bytes.Equal(f.Payload, want.Payload) {
			t.Fatalf("frame %d: got %+v want %+v", i, f, want)
		}
		if f.Version != Version {
			t.Fatalf("frame %d: version = %d", i, f.Version)
		}
	}
	if len(buf) != 0 {
		t.Fatalf("%d bytes left over", len(buf))
	}
}

func TestReadWriteFrame(t *testing.T) {
	var buf bytes.Buffer
	want := Frame{Type: TItems, ID: 99, Payload: Items{Items: []Item{{Pri: 1, Value: []byte("a")}, {Pri: 2}}}.Append(nil)}
	if err := WriteFrame(&buf, want); err != nil {
		t.Fatal(err)
	}
	var fr FrameReader
	got, err := fr.ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != want.Type || got.ID != want.ID || !bytes.Equal(got.Payload, want.Payload) {
		t.Fatalf("got %+v want %+v", got, want)
	}
}

func TestDecodeFrameErrors(t *testing.T) {
	if _, _, err := DecodeFrame([]byte{0, 0}); !errors.Is(err, ErrShort) {
		t.Errorf("tiny buffer: %v", err)
	}
	// Length prefix larger than MaxFrame.
	huge := []byte{0xff, 0xff, 0xff, 0xff}
	if _, _, err := DecodeFrame(huge); !errors.Is(err, ErrTooLarge) {
		t.Errorf("huge length: %v", err)
	}
	// Length below header size.
	small := []byte{0, 0, 0, 2, 0, 0}
	if _, _, err := DecodeFrame(small); !errors.Is(err, ErrBadPayload) {
		t.Errorf("undersized length: %v", err)
	}
	// Wrong version.
	f := AppendFrame(nil, Frame{Type: TEmpty, ID: 1})
	f[4] = 9
	if _, _, err := DecodeFrame(f); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: %v", err)
	}
	// Nonzero flags.
	f = AppendFrame(nil, Frame{Type: TEmpty, ID: 1})
	f[6] = 1
	if _, _, err := DecodeFrame(f); !errors.Is(err, ErrBadFlags) {
		t.Errorf("bad flags: %v", err)
	}
	// Split frame: ErrShort until the full frame arrives.
	full := AppendFrame(nil, Frame{Type: TInsert, ID: 5, Payload: Insert{Queue: "q", Item: Item{Pri: 1, Value: []byte("xy")}}.Append(nil)})
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := DecodeFrame(full[:cut]); !errors.Is(err, ErrShort) {
			t.Fatalf("cut %d: %v", cut, err)
		}
	}
}

// TestBadVersionResync checks the rollout guarantee from the package
// doc: a frame with an unknown version (or nonzero reserved flags) is
// consumed in full — header fields reported so a TError can be sent by
// id — and the next frame on the stream decodes normally.
func TestBadVersionResync(t *testing.T) {
	bad := AppendFrame(nil, Frame{Type: TInsert, ID: 7, Payload: Insert{Queue: "q", Item: Item{Pri: 1, Value: []byte("xyz")}}.Append(nil)})
	bad[4] = 9 // future version
	good := Frame{Type: TStats, ID: 8, Payload: QueueReq{Queue: "q"}.Append(nil)}
	stream := append(append([]byte{}, bad...), AppendFrame(nil, good)...)

	f, n, err := DecodeFrame(stream)
	if !errors.Is(err, ErrBadVersion) {
		t.Fatalf("bad version: %v", err)
	}
	if n != len(bad) {
		t.Fatalf("consumed %d bytes, want the whole %d-byte frame", n, len(bad))
	}
	if f.Version != 9 || f.ID != 7 {
		t.Fatalf("header not reported: %+v", f)
	}
	if f2, _, err := DecodeFrame(stream[n:]); err != nil || f2.ID != good.ID {
		t.Fatalf("resync failed: %+v %v", f2, err)
	}

	// Same via a FrameReader, plus the flags variant.
	badFlags := AppendFrame(nil, Frame{Type: TDrain, ID: 11, Payload: QueueReq{Queue: "q"}.Append(nil)})
	badFlags[6] = 1
	r := bytes.NewReader(append(append(append([]byte{}, bad...), badFlags...), AppendFrame(nil, good)...))
	var fr FrameReader
	if f, err := fr.ReadFrame(r); !errors.Is(err, ErrBadVersion) || f.ID != 7 {
		t.Fatalf("ReadFrame bad version: %+v %v", f, err)
	}
	if f, err := fr.ReadFrame(r); !errors.Is(err, ErrBadFlags) || f.ID != 11 {
		t.Fatalf("ReadFrame bad flags: %+v %v", f, err)
	}
	if f, err := fr.ReadFrame(r); err != nil || f.ID != good.ID {
		t.Fatalf("ReadFrame after resync: %+v %v", f, err)
	}
}

func TestPayloadRoundTrips(t *testing.T) {
	ins := Insert{Queue: "jobs", Item: Item{Pri: 7, Value: []byte("hello")}}
	if got, err := DecodeInsertView(ins.Append(nil)); err != nil || string(got.Queue) != ins.Queue || !reflect.DeepEqual(got.Item, ins.Item) {
		t.Errorf("Insert: got %+v err %v", got, err)
	}

	ib := InsertBatch{Queue: "jobs", Items: []Item{{Pri: 0, Value: []byte("a")}, {Pri: 9, Value: nil}}}
	got, err := DecodeInsertBatchView(ib.Append(nil), nil)
	if err != nil || string(got.Queue) != ib.Queue || len(got.Items) != 2 ||
		got.Items[0].Pri != 0 || !bytes.Equal(got.Items[0].Value, []byte("a")) ||
		got.Items[1].Pri != 9 || len(got.Items[1].Value) != 0 {
		t.Errorf("InsertBatch: got %+v err %v", got, err)
	}

	dmb := DeleteMinBatch{Queue: "jobs", Max: 128}
	if got, err := DecodeDeleteMinBatchView(dmb.Append(nil)); err != nil || string(got.Queue) != dmb.Queue || got.Max != dmb.Max {
		t.Errorf("DeleteMinBatch: got %+v err %v", got, err)
	}

	ok := InsertOK{Accepted: 3, Rejected: 2, RetryAfterMillis: 10}
	if got, err := DecodeInsertOK(ok.Append(nil)); err != nil || got != ok {
		t.Errorf("InsertOK: got %+v err %v", got, err)
	}

	ra := RetryAfter{Millis: 25}
	if got, err := DecodeRetryAfter(ra.Append(nil)); err != nil || got != ra {
		t.Errorf("RetryAfter: got %+v err %v", got, err)
	}

	dr := Drained{Remaining: 1 << 40}
	if got, err := DecodeDrained(dr.Append(nil)); err != nil || got != dr {
		t.Errorf("Drained: got %+v err %v", got, err)
	}

	em := ErrorMsg{Msg: "no such queue"}
	if got, err := DecodeErrorMsg(em.Append(nil)); err != nil || got != em {
		t.Errorf("ErrorMsg: got %+v err %v", got, err)
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	p := append(QueueReq{Queue: "q"}.Append(nil), 0xfe)
	if _, err := DecodeQueueReqView(p); err == nil {
		t.Error("trailing garbage accepted")
	}
}

func TestDecodeBatchRejectsAbsurdCounts(t *testing.T) {
	// A batch claiming 2^20 items in a tiny payload must fail before
	// allocating item headers.
	p := appendStr(nil, "q")
	p = append(p, 0x00, 0x10, 0x00, 0x00) // count = 1<<20
	if _, err := DecodeInsertBatchView(p, nil); err == nil {
		t.Error("absurd batch count accepted")
	}
	if _, err := DecodeItems([]byte{0x00, 0x10, 0x00, 0x00}); err == nil {
		t.Error("absurd items count accepted")
	}
}
