package server

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"sync"

	"pq/internal/wire"
)

// Connection I/O for the zero-allocation serving path.
//
// A respWriter replaces the per-connection bufio.Writer: responses are
// encoded straight into pooled scratch chunks (wire.GetBuf), large
// item values are spliced into the write as aliases of their queue
// envelopes instead of being copied, and a whole micro-batch of
// pipelined responses goes to the kernel as one vectored write
// (net.Buffers → writev), so a depth-N pipeline costs one syscall.
//
// Ownership discipline: every pooled buffer a response references —
// scratch chunks and zero-copy envelopes alike — is queued on the
// writer's recycle list and returned to the pool only after the flush
// that wrote its bytes. Nothing is recycled while the kernel may still
// read it.

const (
	// zeroCopyMin: item values at least this large are aliased into
	// the vectored write; smaller ones are memcpy'd into the scratch
	// chunk (a copy this size is cheaper than an extra iovec entry).
	zeroCopyMin = 4 << 10
	// flushHighWater bounds the response bytes buffered before an
	// intermediate flush, so a deep pipeline of fat responses cannot
	// pin unbounded memory.
	flushHighWater = 256 << 10
	// respChunkSize is the scratch chunk granularity; small responses
	// for a whole micro-batch typically fit in one chunk.
	respChunkSize = 32 << 10
)

type respWriter struct {
	dst *countingWriter

	bufs    net.Buffers // completed iovecs, in write order
	cur     []byte      // open scratch chunk (pooled), appended to in place
	recycle [][]byte    // pooled buffers owned by pending bytes; PutBuf after flush
	chunks  [][]byte    // spent scratch chunks owned by pending bytes; putChunk after flush
	done    int         // bytes across bufs (excludes cur)
	flushes int64       // vectored flushes issued (the syscall count proxy)
	err     error       // sticky write error
	// vscratch is the reusable iovec copy handed to WriteBuffers, which
	// consumes the slice it is given. A struct field rather than a
	// local so taking its address doesn't force a heap escape per flush.
	vscratch net.Buffers
	// spare holds scratch chunks retained across flushes. Splice-heavy
	// batches open a new chunk per spliced item; keeping the chunks on
	// the writer makes that churn connection-local instead of a burst of
	// same-class pool traffic.
	spare [][]byte
	// envs carries one pop's envelopes from the queue to the response
	// encoder (handlePop); kept here so the path reuses one slice per
	// connection.
	envs [][]byte
	// items is the same for one INSERT_BATCH's decoded items (handle).
	items []wire.Item
}

var respWriterPool = sync.Pool{New: func() any { return new(respWriter) }}

func getRespWriter(dst *countingWriter) *respWriter {
	w := respWriterPool.Get().(*respWriter)
	w.dst = dst
	w.err = nil
	w.flushes = 0
	return w
}

// maxSpareChunks bounds the chunks a writer retains: enough for every
// splice in a flush-high-water batch to reopen one.
const maxSpareChunks = 16

// getChunk takes a retained chunk, falling back to the pool.
func (w *respWriter) getChunk() []byte {
	if n := len(w.spare); n > 0 {
		c := w.spare[n-1]
		w.spare[n-1] = nil
		w.spare = w.spare[:n-1]
		return c
	}
	return wire.GetBuf(respChunkSize)
}

// putChunk retains a spent scratch chunk for reuse, overflowing to the
// pool once the writer holds enough.
func (w *respWriter) putChunk(c []byte) {
	if len(w.spare) < maxSpareChunks {
		w.spare = append(w.spare, c[:0])
		return
	}
	wire.PutBuf(c)
}

// release drops buffer references and returns the writer to its pool.
// Pending unflushed bytes are discarded (the connection is gone).
// Retained chunks stay with the writer — it is pooled itself.
func (w *respWriter) release() {
	if w.cur != nil {
		w.putChunk(w.cur)
		w.cur = nil
	}
	for i := range w.recycle {
		wire.PutBuf(w.recycle[i])
		w.recycle[i] = nil
	}
	w.recycle = w.recycle[:0]
	for i := range w.chunks {
		w.putChunk(w.chunks[i])
		w.chunks[i] = nil
	}
	w.chunks = w.chunks[:0]
	for i := range w.bufs {
		w.bufs[i] = nil
	}
	w.bufs = w.bufs[:0]
	w.done = 0
	w.dst = nil
	respWriterPool.Put(w)
}

// pending reports the bytes buffered since the last flush.
func (w *respWriter) pending() int { return w.done + len(w.cur) }

// beginFrame starts a response frame in the open chunk and returns the
// append target plus the length-patch offset for endFrame.
func (w *respWriter) beginFrame(t wire.Type, id uint32) ([]byte, int) {
	if w.cur == nil {
		w.cur = w.getChunk()
	}
	return wire.BeginFrame(w.cur, t, id)
}

// endFrame seals a frame begun with beginFrame. buf must be the slice
// beginFrame returned, extended only by appends.
func (w *respWriter) endFrame(buf []byte, off int) error {
	w.cur = wire.EndFrame(buf, off)
	if w.pending() >= flushHighWater {
		return w.flush()
	}
	return w.err
}

// closeChunk moves the open chunk onto the iovec list.
func (w *respWriter) closeChunk() {
	if len(w.cur) == 0 {
		return
	}
	w.bufs = append(w.bufs, w.cur)
	w.chunks = append(w.chunks, w.cur)
	w.done += len(w.cur)
	w.cur = nil
}

// itemFrame writes a TItem response for one queue envelope (priority
// tag + value, see servedQueue.tagLen) and takes ownership of the
// envelope: small values are copied and the envelope recycled at once,
// large ones are aliased into the vectored write with the recycle
// deferred until after the flush.
func (w *respWriter) itemFrame(id uint32, env []byte, tagLen int) error {
	pri := binary.BigEndian.Uint32(env)
	value := env[tagLen:]
	if len(value) < zeroCopyMin {
		buf, off := w.beginFrame(wire.TItem, id)
		buf = binary.BigEndian.AppendUint32(buf, pri)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(value)))
		buf = append(buf, value...)
		err := w.endFrame(buf, off)
		wire.PutBuf(env)
		return err
	}
	if w.cur == nil {
		w.cur = w.getChunk()
	}
	w.cur = wire.AppendFrameHeader(w.cur, wire.TItem, id, 8+len(value))
	w.cur = binary.BigEndian.AppendUint32(w.cur, pri)
	w.cur = binary.BigEndian.AppendUint32(w.cur, uint32(len(value)))
	w.spliceRef(value, env)
	if w.pending() >= flushHighWater {
		return w.flush()
	}
	return w.err
}

// itemsFrame writes a TItems response from queue envelopes, taking
// ownership of every envelope like itemFrame does.
func (w *respWriter) itemsFrame(id uint32, envs [][]byte, tagLen int) error {
	payloadLen := 4
	for _, env := range envs {
		payloadLen += 8 + len(env) - tagLen
	}
	if w.cur == nil {
		w.cur = w.getChunk()
	}
	w.cur = wire.AppendFrameHeader(w.cur, wire.TItems, id, payloadLen)
	w.cur = binary.BigEndian.AppendUint32(w.cur, uint32(len(envs)))
	for _, env := range envs {
		value := env[tagLen:]
		if w.cur == nil { // a splice below closed the chunk
			w.cur = w.getChunk()
		}
		w.cur = binary.BigEndian.AppendUint32(w.cur, binary.BigEndian.Uint32(env))
		w.cur = binary.BigEndian.AppendUint32(w.cur, uint32(len(value)))
		if len(value) < zeroCopyMin {
			w.cur = append(w.cur, value...)
			wire.PutBuf(env)
		} else {
			w.spliceRef(value, env)
		}
	}
	if w.pending() >= flushHighWater {
		return w.flush()
	}
	return w.err
}

// spliceRef appends b to the vectored write without copying; owner is
// the pooled buffer keeping b alive, recycled after the flush.
func (w *respWriter) spliceRef(b, owner []byte) {
	w.closeChunk()
	w.bufs = append(w.bufs, b)
	w.recycle = append(w.recycle, owner)
	w.done += len(b)
}

// flush writes everything buffered in one vectored write. Errors are
// sticky: the connection is unusable after one.
func (w *respWriter) flush() error {
	if w.err != nil {
		return w.err
	}
	w.closeChunk()
	if len(w.bufs) == 0 {
		return nil
	}
	// WriteTo advances the slice and its elements as it writes, so it
	// gets a scratch copy of the iovecs; recycle keeps the originals.
	// save preserves the full-capacity header across that consumption.
	w.vscratch = append(w.vscratch[:0], w.bufs...)
	save := w.vscratch
	_, err := w.dst.WriteBuffers(&w.vscratch)
	for i := range save {
		save[i] = nil
	}
	w.vscratch = save[:0]
	w.flushes++
	for i := range w.recycle {
		wire.PutBuf(w.recycle[i])
		w.recycle[i] = nil
	}
	w.recycle = w.recycle[:0]
	for i := range w.chunks {
		w.putChunk(w.chunks[i])
		w.chunks[i] = nil
	}
	w.chunks = w.chunks[:0]
	for i := range w.bufs {
		w.bufs[i] = nil
	}
	w.bufs = w.bufs[:0]
	w.done = 0
	w.err = err
	return err
}

// connReaderPool recycles the 64 KiB per-connection read buffers
// across connection churn.
var connReaderPool = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nil, 64<<10) },
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
