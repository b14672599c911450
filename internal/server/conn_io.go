package server

import (
	"bufio"
	"encoding/binary"
	"io"
	"sync"

	"pq/internal/wire"
)

// Connection I/O for the zero-allocation serving path.
//
// A respWriter is a pooled 64 KiB bufio.Writer plus the connection's
// decode and pop scratch. Small frames are encoded straight into its
// free buffer (AvailableBuffer) and item values are Written after their
// headers. bufio copies them in and flushes whenever the buffer fills
// (only a remainder bigger than the whole buffer goes to the connection
// uncopied), so a micro-batch of pipelined responses costs one write(2)
// per 64 KiB.
//
// Ownership: a queue envelope is recycled as soon as the Write carrying
// its value returns, because by then bufio has copied the value or the
// kernel has. Nothing the writer buffers aliases a pooled buffer.

// respBufSize is the response buffer per connection, the read side's
// size too.
const respBufSize = 64 << 10

// smallFrame is the free space asked for before a frame is encoded in
// place: any fixed-size response, and a WRONG_NODE with a host:port
// address. A longer payload is still encoded correctly; append just
// moves it off the buffer first.
const smallFrame = 128

type respWriter struct {
	*bufio.Writer
	// envs carries one pop's envelopes from the queue to the response
	// encoder (handlePop); kept here so the path reuses one slice per
	// connection.
	envs [][]byte
	// items is the same for one INSERT_BATCH's decoded items (handle).
	items []wire.Item
}

var respWriterPool = sync.Pool{New: func() any {
	return &respWriter{Writer: bufio.NewWriterSize(nil, respBufSize)}
}}

func getRespWriter(dst io.Writer) *respWriter {
	w := respWriterPool.Get().(*respWriter)
	w.Reset(dst)
	return w
}

// release drops the connection reference, discarding unflushed bytes
// (the connection is gone), and returns the writer to its pool.
func (w *respWriter) release() {
	w.Reset(nil)
	respWriterPool.Put(w)
}

// room returns the writer's free buffer to append up to n bytes into,
// flushing first when fewer than n are free. A flush error is sticky:
// the Write that follows returns it.
func (w *respWriter) room(n int) []byte {
	if w.Available() < n {
		w.Flush()
	}
	return w.AvailableBuffer()
}

// beginFrame starts a response frame in the free buffer and returns
// the append target plus the length-patch offset for endFrame.
func (w *respWriter) beginFrame(t wire.Type, id uint32) ([]byte, int) {
	return wire.BeginFrame(w.room(smallFrame), t, id)
}

// endFrame seals a frame begun with beginFrame. buf must be the slice
// beginFrame returned, extended only by appends.
func (w *respWriter) endFrame(buf []byte, off int) error {
	_, err := w.Write(wire.EndFrame(buf, off))
	return err
}

// item writes one ITEM/ITEMS element for a queue envelope (priority
// tag + value, see servedQueue.tagLen) and recycles the envelope.
func (w *respWriter) item(env []byte, tagLen int) error {
	value := env[tagLen:]
	buf := binary.BigEndian.AppendUint32(w.room(8), binary.BigEndian.Uint32(env))
	w.Write(binary.BigEndian.AppendUint32(buf, uint32(len(value)))) // errors are sticky
	_, err := w.Write(value)
	wire.PutBuf(env)
	return err
}

// itemFrame writes a TItem response for one queue envelope and takes
// ownership of it.
func (w *respWriter) itemFrame(id uint32, env []byte, tagLen int) error {
	w.Write(wire.AppendFrameHeader(w.room(smallFrame), wire.TItem, id, 8+len(env)-tagLen))
	return w.item(env, tagLen)
}

// itemsFrame writes a TItems response from queue envelopes, taking
// ownership of every envelope like itemFrame does.
func (w *respWriter) itemsFrame(id uint32, envs [][]byte, tagLen int) error {
	payloadLen := 4
	for _, env := range envs {
		payloadLen += 8 + len(env) - tagLen
	}
	buf := wire.AppendFrameHeader(w.room(smallFrame), wire.TItems, id, payloadLen)
	_, err := w.Write(binary.BigEndian.AppendUint32(buf, uint32(len(envs))))
	for _, env := range envs {
		err = w.item(env, tagLen)
	}
	return err
}

// connReaderPool recycles the 64 KiB per-connection read buffers
// across connection churn.
var connReaderPool = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nil, respBufSize) },
}

func getConnReader(src io.Reader) *bufio.Reader {
	br := connReaderPool.Get().(*bufio.Reader)
	br.Reset(src)
	return br
}

func putConnReader(br *bufio.Reader) {
	br.Reset(nil) // drop the connection reference before pooling
	connReaderPool.Put(br)
}

// nextFrameBuffered reports whether br already holds the whole next
// frame, so reading it cannot block. Only the 4-byte length prefix is
// peeked, and only once it is buffered (Peek would otherwise wait).
// ReadFrame consumes at least the 12-byte header even when a malformed
// length claims less.
func nextFrameBuffered(br *bufio.Reader) bool {
	n := br.Buffered()
	if n < 4 {
		return false
	}
	p, _ := br.Peek(4)
	return n >= 4+max(int(binary.BigEndian.Uint32(p)), 8)
}
