package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"sync"
	"testing"
)

func TestBufPoolRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 511, 512, 513, 8 << 10, 100 << 10, MaxFrame, MaxFrame + 16} {
		b := GetBuf(n)
		if len(b) != 0 {
			t.Fatalf("GetBuf(%d): len=%d, want 0", n, len(b))
		}
		if cap(b) < n {
			t.Fatalf("GetBuf(%d): cap=%d", n, cap(b))
		}
		b = append(b, make([]byte, n)...)
		PutBuf(b)
	}
	// Oversize requests still work; the buffer is just not pooled.
	huge := GetBuf(MaxFrame + 1<<10)
	if cap(huge) < MaxFrame+1<<10 {
		t.Fatalf("oversize GetBuf cap=%d", cap(huge))
	}
	PutBuf(huge)
	PutBuf(nil)             // dropped, must not panic
	PutBuf(make([]byte, 8)) // below smallest class: dropped
}

func TestBufPoolReuses(t *testing.T) {
	// Drain-then-cycle: after a warmup Put, Get/Put pairs must not
	// allocate. Stripe round-robin means one warmup buffer per stripe.
	for i := 0; i < numBufStripes; i++ {
		PutBuf(GetBuf(64))
	}
	allocs := testing.AllocsPerRun(200, func() {
		b := GetBuf(64)
		PutBuf(b)
	})
	if allocs != 0 {
		t.Fatalf("GetBuf/PutBuf allocated %.1f times per op", allocs)
	}
}

// TestBufClassSlack: GetBuf(n) hands out n ≤ cap ≤ max(64, 2n) for every
// n up to a maximal encoded frame. Up to the largest class each n is
// asked of the pool itself; above it GetBuf allocates exactly n, which
// is checked at a stride rather than by allocating a megabyte per n.
func TestBufClassSlack(t *testing.T) {
	check := func(n int) {
		b := GetBuf(n)
		if c := cap(b); c < n || c > max(64, 2*n) {
			t.Fatalf("cap(GetBuf(%d)) = %d, want within [%d, %d]", n, c, n, max(64, 2*n))
		}
		PutBuf(b)
	}
	for n := 0; n <= maxBufClass; n++ {
		check(n)
	}
	for n := maxBufClass + 1; n < MaxFrame+16; n += 4099 {
		check(n)
	}
	check(MaxFrame)
	check(MaxFrame + 16)
}

// retained is what the freelist holds: the capacity of its free buffers
// and the free-list slots that point at them.
func retained() (bufBytes, slots int) {
	for i := range bufStripes {
		st := &bufStripes[i]
		st.mu.Lock()
		for _, fl := range st.free {
			for _, b := range fl {
				bufBytes += cap(b)
			}
			slots += cap(fl)
		}
		st.mu.Unlock()
	}
	return bufBytes, slots
}

// TestBufPoolSoak: 10⁶ GetBuf/PutBuf pairs over a fixed live set of 4096
// buffers, with a burst of 8192 more taken and returned every 50,000
// pairs, sizes drawn from a seeded mix of envelopes, frames and a few
// large values. What the freelist retains levels off: it never exceeds
// the bound pool.go states, and it grows by less than an eighth between
// the middle of the run and its end.
func TestBufPoolSoak(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	size := func() int {
		switch r := rng.Intn(100); {
		case r < 80:
			return rng.Intn(128)
		case r < 98:
			return rng.Intn(8 << 10)
		default:
			return rng.Intn(2 * maxBufClass)
		}
	}
	const pairs, burstEvery, burstLen = 1_000_000, 50_000, 8192
	maxSlots := 0
	for ci := 0; ci < numBufClasses; ci++ {
		maxSlots += numBufStripes * bufClassCap(ci)
	}
	live := make([][]byte, 4096)
	for i := range live {
		live[i] = GetBuf(size())
	}
	burst := make([][]byte, burstLen)
	var samples []int
	for op := 1; op <= pairs; op++ {
		i := rng.Intn(len(live))
		PutBuf(live[i])
		live[i] = GetBuf(size())
		if op%burstEvery != 0 {
			continue
		}
		for j := range burst {
			burst[j] = GetBuf(size())
		}
		for j, b := range burst {
			PutBuf(b)
			burst[j] = nil
		}
		b, slots := retained()
		if b > maxRetainedBytes || slots > maxSlots {
			t.Fatalf("after %d pairs the freelist holds %d bytes in %d slots, over its bound of %d bytes in %d slots",
				op, b, slots, maxRetainedBytes, maxSlots)
		}
		samples = append(samples, b)
	}
	for _, b := range live {
		PutBuf(b)
	}
	mid, end := samples[len(samples)/2-1], samples[len(samples)-1]
	t.Logf("retained after each burst: %v bytes (bound %d)", samples, maxRetainedBytes)
	if end-mid > mid/8 {
		t.Fatalf("retained bytes still growing: %d at mid-run, %d at the end", mid, end)
	}
}

func TestBufPoolConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sizes := []int{16, 4 << 10, 64 << 10}
			for i := 0; i < 2000; i++ {
				b := GetBuf(sizes[(g+i)%len(sizes)])
				b = append(b, byte(g), byte(i))
				if b[0] != byte(g) || b[1] != byte(i) {
					t.Errorf("buffer corrupted")
					return
				}
				PutBuf(b)
			}
		}(g)
	}
	wg.Wait()
}

// TestFrameReaderMatchesReadFrame reads one stream with a FrameReader and
// with DecodeFrame, the two decoders that share checkHeader: each frame
// must come out the same from both.
func TestFrameReaderMatchesReadFrame(t *testing.T) {
	frames := []Frame{
		{Type: TInsert, ID: 7, Payload: Insert{Queue: "q", Item: Item{Pri: 3, Value: []byte("abc")}}.Append(nil)},
		{Type: TEmpty, ID: 8},
		{Type: TItem, ID: 9, Payload: AppendItem(nil, Item{Pri: 1, Value: bytes.Repeat([]byte{0xaa}, 4096)})},
	}
	var stream []byte
	for _, f := range frames {
		stream = AppendFrame(stream, f)
	}
	var fr FrameReader
	r := bytes.NewReader(stream)
	rest := stream
	for i, want := range frames {
		got, err := fr.ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.Type || got.ID != want.ID || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: got %+v want %+v", i, got, want)
		}
		dec, n, err := DecodeFrame(rest)
		if err != nil || dec.Type != got.Type || dec.ID != got.ID || !bytes.Equal(dec.Payload, got.Payload) {
			t.Fatalf("frame %d: DecodeFrame gave %+v, %v; FrameReader gave %+v", i, dec, err, got)
		}
		rest = rest[n:]
		PutBuf(got.Payload)
	}
	if _, err := fr.ReadFrame(r); err != io.EOF {
		t.Fatalf("at end: %v, want EOF", err)
	}
}

func TestFrameReaderResync(t *testing.T) {
	var stream []byte
	bad := AppendFrame(nil, Frame{Type: TInsert, ID: 5, Payload: []byte("junk-payload")})
	bad[4] = 99 // unsupported version
	stream = append(stream, bad...)
	stream = AppendFrame(stream, Frame{Type: TDeleteMin, ID: 6, Payload: QueueReq{Queue: "q"}.Append(nil)})

	var fr FrameReader
	r := bytes.NewReader(stream)
	f, err := fr.ReadFrame(r)
	if !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err=%v, want ErrBadVersion", err)
	}
	if f.ID != 5 {
		t.Fatalf("bad-version frame id=%d, want 5", f.ID)
	}
	f, err = fr.ReadFrame(r)
	if err != nil || f.Type != TDeleteMin || f.ID != 6 {
		t.Fatalf("after resync: %+v, %v", f, err)
	}
	PutBuf(f.Payload)
}

func TestBeginEndFrameMatchesAppendFrame(t *testing.T) {
	payload := Insert{Queue: "orders", Item: Item{Pri: 42, Value: []byte("v")}}.Append(nil)
	want := AppendFrame(nil, Frame{Type: TInsert, ID: 99, Payload: payload})

	buf, off := BeginFrame([]byte("prefix"), TInsert, 99)
	buf = Insert{Queue: "orders", Item: Item{Pri: 42, Value: []byte("v")}}.Append(buf)
	buf = EndFrame(buf, off)
	if !bytes.Equal(buf[6:], want) {
		t.Fatalf("BeginFrame/EndFrame encoding diverges:\n got %x\nwant %x", buf[6:], want)
	}
	if string(buf[:6]) != "prefix" {
		t.Fatalf("existing bytes clobbered: %q", buf[:6])
	}

	// A second frame appended to the same buffer must also decode.
	buf, off = BeginFrame(buf, TEmpty, 100)
	buf = EndFrame(buf, off)
	f1, n, err := DecodeFrame(buf[6:])
	if err != nil || f1.ID != 99 {
		t.Fatalf("decode first: %+v %v", f1, err)
	}
	f2, _, err := DecodeFrame(buf[6+n:])
	if err != nil || f2.Type != TEmpty || f2.ID != 100 {
		t.Fatalf("decode second: %+v %v", f2, err)
	}
}

func TestDecodeViewsMatchDecoders(t *testing.T) {
	ins := Insert{Queue: "q1", Item: Item{Pri: 9, Value: []byte("hello")}}
	p := ins.Append(nil)
	v, err := DecodeInsertView(p)
	if err != nil {
		t.Fatal(err)
	}
	if string(v.Queue) != ins.Queue || v.Item.Pri != 9 || !bytes.Equal(v.Item.Value, ins.Item.Value) {
		t.Fatalf("InsertView mismatch: %+v", v)
	}
	// The view aliases the payload.
	p[len(p)-1] = 'O'
	if string(v.Item.Value) != "hellO" {
		t.Fatal("InsertView does not alias the payload")
	}

	b := InsertBatch{Queue: "q2", Items: []Item{{Pri: 1, Value: []byte("a")}, {Pri: 2, Value: []byte("bb")}}}
	bv, err := DecodeInsertBatchView(b.Append(nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(bv.Queue) != "q2" || len(bv.Items) != 2 || bv.Items[1].Pri != 2 || string(bv.Items[1].Value) != "bb" {
		t.Fatalf("InsertBatchView mismatch: %+v", bv)
	}
	// Scratch reuse: a second decode into the same backing array.
	bv2, err := DecodeInsertBatchView(b.Append(nil), bv.Items[:0])
	if err != nil || len(bv2.Items) != 2 {
		t.Fatalf("scratch reuse: %+v %v", bv2, err)
	}

	q, err := DecodeQueueReqView(QueueReq{Queue: "q3"}.Append(nil))
	if err != nil || string(q.Queue) != "q3" {
		t.Fatalf("QueueReqView: %+v %v", q, err)
	}
	d, err := DecodeDeleteMinBatchView(DeleteMinBatch{Queue: "q4", Max: 17}.Append(nil))
	if err != nil || string(d.Queue) != "q4" || d.Max != 17 {
		t.Fatalf("DeleteMinBatchView: %+v %v", d, err)
	}

	want := []Item{{Pri: 4, Value: []byte("x")}, {Pri: 5, Value: nil}, {Pri: 6, Value: []byte("zzz")}}
	ip := Items{Items: want}.Append(nil)
	iv, err := DecodeItemsView(ip)
	if err != nil || iv.Len != len(want) {
		t.Fatalf("ItemsView: %+v %v", iv, err)
	}
	for i := 0; iv.Len > 0; i++ {
		elem, err := iv.Next()
		if err != nil {
			t.Fatal(err)
		}
		it, err := DecodeItem(elem)
		if err != nil || it.Pri != want[i].Pri || !bytes.Equal(it.Value, want[i].Value) {
			t.Fatalf("ItemsView element %d: %+v %v, want %+v", i, it, err, want[i])
		}
	}
	if iv, err := DecodeItemsView(Items{}.Append(nil)); err != nil || iv.Len != 0 {
		t.Fatalf("empty ItemsView: %+v %v", iv, err)
	}

	// Malformed payloads: the insert view rejects every one, and the
	// items view errors exactly like the allocating response decoder.
	for _, junk := range [][]byte{{0x00}, {0x00, 0x02, 'q'}, nil, append(ip, 0), ip[:len(ip)-1], {0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 9}, append(p, 0), p[:len(p)-1]} {
		if _, err := DecodeInsertView(junk); err == nil {
			t.Fatalf("InsertView accepted malformed %x", junk)
		}
		if iv, err := DecodeItemsView(junk); err == nil {
			for err == nil && iv.Len > 0 {
				_, err = iv.Next()
			}
			if _, err2 := DecodeItems(junk); (err == nil) != (err2 == nil) {
				t.Fatalf("ItemsView and DecodeItems disagree on %x: %v, %v", junk, err, err2)
			}
		}
	}
}

func TestHotPathDecodeDoesNotAllocate(t *testing.T) {
	insP := Insert{Queue: "bench", Item: Item{Pri: 3, Value: []byte("0123456789abcdef")}}.Append(nil)
	qP := QueueReq{Queue: "bench"}.Append(nil)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := DecodeInsertView(insP); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeQueueReqView(qP); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("decode views allocated %.1f times per op", allocs)
	}
}
