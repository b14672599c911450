package main

import (
	"bufio"
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"

	"pq/internal/wire"
)

// stubServer acks every request frame from canned payloads, so that a
// client library measured against it sees a server that costs nearly
// nothing. It counts insert frames and the items they carried, which is
// the client's coalescing factor.
type stubServer struct {
	ln    net.Listener
	wg    sync.WaitGroup
	mu    sync.Mutex
	conns map[net.Conn]struct{}

	insertFrames, insertItems atomic.Int64
}

var (
	stubItem  = wire.AppendItem(nil, wire.Item{Pri: 0, Value: putValue(make([]byte, valueLen), makeID(prefillCaller, 0, 0))})
	stubItems = wire.Items{}.Append(nil)
)

func startStub() (*stubServer, error) {
	ln, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	s := &stubServer{ln: ln, conns: map[net.Conn]struct{}{}}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed by stop
			}
			s.mu.Lock()
			s.conns[c] = struct{}{}
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.serve(c)
			}()
		}
	}()
	return s, nil
}

func (s *stubServer) addr() string { return s.ln.Addr().String() }

func (s *stubServer) stop() {
	s.ln.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// serve answers frames until the connection closes, flushing whenever no
// further request is already buffered.
func (s *stubServer) serve(c net.Conn) {
	defer c.Close()
	br := bufio.NewReaderSize(c, 64<<10)
	bw := bufio.NewWriterSize(c, 64<<10)
	var fr wire.FrameReader
	var out []byte
	for {
		f, err := fr.ReadFrame(br)
		if err != nil {
			return
		}
		out = s.reply(out[:0], f)
		wire.PutBuf(f.Payload)
		if _, err := bw.Write(out); err != nil {
			return
		}
		if br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}
}

func (s *stubServer) reply(dst []byte, f wire.Frame) []byte {
	frame := func(t wire.Type, payload []byte) []byte {
		return append(wire.AppendFrameHeader(dst, t, f.ID, len(payload)), payload...)
	}
	switch f.Type {
	case wire.TInsert:
		s.insertFrames.Add(1)
		s.insertItems.Add(1)
		return insertOKFrame(dst, f.ID, 1)
	case wire.TInsertBatch:
		n, ok := batchCount(f.Payload)
		if !ok {
			return frame(wire.TError, wire.ErrorMsg{Msg: "stub: malformed INSERT_BATCH"}.Append(nil))
		}
		s.insertFrames.Add(1)
		s.insertItems.Add(int64(n))
		return insertOKFrame(dst, f.ID, n)
	case wire.TDeleteMin:
		return frame(wire.TItem, stubItem)
	case wire.TDeleteMinBatch:
		return frame(wire.TItems, stubItems)
	case wire.TStats:
		return frame(wire.TStatsReply, []byte("{}"))
	case wire.TDrain:
		return frame(wire.TDrained, wire.Drained{}.Append(nil))
	}
	return frame(wire.TError, wire.ErrorMsg{Msg: "stub: unknown request type"}.Append(nil))
}

func insertOKFrame(dst []byte, id uint32, accepted uint32) []byte {
	dst, off := wire.BeginFrame(dst, wire.TInsertOK, id)
	return wire.EndFrame(wire.InsertOK{Accepted: accepted}.Append(dst), off)
}

// batchCount reads the item count of an INSERT_BATCH payload: a
// uint16-prefixed queue name, then the count.
func batchCount(p []byte) (uint32, bool) {
	if len(p) < 2 {
		return 0, false
	}
	off := 2 + int(binary.BigEndian.Uint16(p))
	if len(p) < off+4 {
		return 0, false
	}
	return binary.BigEndian.Uint32(p[off:]), true
}
