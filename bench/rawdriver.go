package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"

	"pq/internal/wire"
)

// rawBatch is a run of pre-encoded request frames written with one Write:
// the benchmark's own driver for the server layer, so that pqclient's cost
// is excluded. Only request ids and insert priorities are patched per use.
type rawBatch struct {
	buf     []byte
	idOffs  []int
	priOffs []int       // one per TInsert frame; the value starts 8 bytes on
	kinds   []wire.Type // request type of each frame, in order
}

func (b *rawBatch) begin(t wire.Type) int {
	b.idOffs = append(b.idOffs, len(b.buf)+8)
	b.kinds = append(b.kinds, t)
	var off int
	b.buf, off = wire.BeginFrame(b.buf, t, 0)
	return off
}

func (b *rawBatch) addInsert(value []byte) {
	off := b.begin(wire.TInsert)
	b.priOffs = append(b.priOffs, len(b.buf)+2+len(queueName))
	b.buf = wire.EndFrame(wire.Insert{Queue: queueName, Item: wire.Item{Value: value}}.Append(b.buf), off)
}

func (b *rawBatch) addDeleteMin() {
	off := b.begin(wire.TDeleteMin)
	b.buf = wire.EndFrame(wire.QueueReq{Queue: queueName}.Append(b.buf), off)
}

func (b *rawBatch) addInsertBatch(items []wire.Item) {
	off := b.begin(wire.TInsertBatch)
	b.buf = wire.EndFrame(wire.InsertBatch{Queue: queueName, Items: items}.Append(b.buf), off)
}

func (b *rawBatch) addDeleteMinBatch(n int) {
	off := b.begin(wire.TDeleteMinBatch)
	b.buf = wire.EndFrame(wire.DeleteMinBatch{Queue: queueName, Max: uint32(n)}.Append(b.buf), off)
}

// responseOK reports whether resp is a well-typed answer to req.
func responseOK(req, resp wire.Type) bool {
	switch req {
	case wire.TInsert, wire.TInsertBatch:
		return resp == wire.TInsertOK
	case wire.TDeleteMin:
		return resp == wire.TItem || resp == wire.TEmpty
	case wire.TDeleteMinBatch:
		return resp == wire.TItems
	}
	return false
}

// rawConn is one loopback connection speaking raw frames, allocation-free
// once warm.
type rawConn struct {
	nc     net.Conn
	br     *bufio.Reader
	hdr    [12]byte
	buf    []byte
	nextID uint32
	// lastType and last are the type and payload of the latest response.
	lastType wire.Type
	last     []byte
}

func dialRaw(addr string) (*rawConn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &rawConn{nc: nc, br: bufio.NewReaderSize(nc, 256<<10), buf: make([]byte, 64<<10), nextID: 1}, nil
}

func (rc *rawConn) close() { rc.nc.Close() }

// exchange sends the batch with fresh request ids (and insert priorities
// from pri, if not nil) and reads one response per frame, checking that
// ids are echoed in order and every response type fits its request.
func (rc *rawConn) exchange(b *rawBatch, pri func() int) error {
	first := rc.nextID
	for _, off := range b.idOffs {
		binary.BigEndian.PutUint32(b.buf[off:], rc.nextID)
		rc.nextID++
	}
	if pri != nil {
		for _, off := range b.priOffs {
			binary.BigEndian.PutUint32(b.buf[off:], uint32(pri()))
		}
	}
	if _, err := rc.nc.Write(b.buf); err != nil {
		return err
	}
	for i, req := range b.kinds {
		if err := rc.read(); err != nil {
			return err
		}
		if id := binary.BigEndian.Uint32(rc.hdr[8:12]); id != first+uint32(i) {
			return fmt.Errorf("raw driver: response id %d, want %d", id, first+uint32(i))
		}
		if !responseOK(req, rc.lastType) {
			return fmt.Errorf("raw driver: %v answered with %v", req, rc.lastType)
		}
	}
	return nil
}

func (rc *rawConn) read() error {
	if _, err := io.ReadFull(rc.br, rc.hdr[:]); err != nil {
		return err
	}
	n := int(binary.BigEndian.Uint32(rc.hdr[:4]))
	if n < 8 || n > wire.MaxFrame {
		return fmt.Errorf("raw driver: bad response length %d", n)
	}
	if n-8 > len(rc.buf) {
		rc.buf = make([]byte, n-8)
	}
	rc.lastType, rc.last = wire.Type(rc.hdr[5]), rc.buf[:n-8]
	_, err := io.ReadFull(rc.br, rc.last)
	return err
}
