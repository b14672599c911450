package wire

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Buffer freelist for the serving hot path.
//
// Frame payloads, response scratch, and item envelopes all want the
// same thing: a []byte obtained and released once per request with no
// per-op allocation. sync.Pool cannot hold bare []byte without boxing
// the slice header on every Put (an allocation — exactly what this
// exists to remove), and the pointer-box idiom (*[]byte) loses the box
// the moment a buffer flows into the queue as a plain value. So this
// is a hand-rolled freelist: power-of-two size classes, each striped
// across mutex-guarded stacks to keep unrelated connections off each
// other's cache lines.
//
// Classes run from 64 B to 128 KiB, one per power of two, and a request
// for n bytes gets the smallest class that holds it, so a buffer never
// has more than max(64, 2n) bytes of capacity: a 20-byte item envelope
// costs 64 bytes, not a fixed minimum. A request above the largest
// class is allocated at its exact size and dropped on return; such
// frames are rare, and one pooled megabyte per stripe would cost more
// than the largest class's whole budget.
//
// Retention is capped in bytes: each stripe keeps at most
// bufClassBytes of free buffers per class (2048 of 64 B, …, one of
// 128 KiB), so the worst case is maxRetainedBytes = 16 stripes × 12
// classes × 128 KiB = 24 MiB of buffers, plus 24 bytes of free-list
// slot per retained buffer (16 × 4095 slots, 1.5 MiB): 25.5 MiB. It is
// reached only if that many buffers were in flight at once.
//
// Ownership is explicit: GetBuf transfers the buffer to the caller,
// PutBuf transfers it back. Nothing here zeroes memory — callers must
// treat a fresh buffer's contents as garbage — and double-Put is a
// corruption bug just like double-free.

const (
	minBufShift   = 6  // the smallest class holds 64 B
	numBufClasses = 12 // 64 B … 128 KiB
	maxBufClass   = 1 << (minBufShift + numBufClasses - 1)
	bufClassBytes = maxBufClass // free bytes one stripe keeps per class
	numBufStripes = 16
	stripeMask    = numBufStripes - 1

	// maxRetainedBytes bounds the buffer bytes the freelist can hold.
	maxRetainedBytes = numBufStripes * numBufClasses * bufClassBytes
)

type bufStripe struct {
	mu   sync.Mutex
	free [numBufClasses][][]byte
	_    [64]byte // keep neighbouring stripes off one cache line
}

// bufCursor is one class's stripe cursor, alone on its cache line.
type bufCursor struct {
	n atomic.Uint32
	_ [60]byte
}

var (
	bufStripes [numBufStripes]bufStripe
	bufCursors [numBufClasses]bufCursor
)

// bufProbes bounds how many stripes one Get or Put examines before
// giving up (allocating or dropping). Each class has its own cursor:
// Gets advance it and Puts step it back, each starting its probe at the
// stripe the cursor named before a Put or after a Get, so a class's
// stripes behave as one stack. A Put lands where the next Get looks
// first, and a burst of n Gets (a batch of envelopes) answered by n
// Puts (its response), in any order, returns each buffer to a stripe
// the next such burst will ask.
const bufProbes = 4

// bufClassFor is the class of a request for n ≤ maxBufClass bytes: the
// smallest power of two that holds max(n, 64), as an index from 0.
func bufClassFor(n int) int {
	if n <= 1<<minBufShift {
		return 0
	}
	return bits.Len(uint(n-1)) - minBufShift
}

// bufClassCap is how many free buffers of class ci one stripe keeps.
func bufClassCap(ci int) int { return bufClassBytes >> (minBufShift + ci) }

// GetBuf returns a buffer with len 0 and n ≤ cap ≤ max(64, 2n), from
// the freelist when possible. The caller owns it until PutBuf.
func GetBuf(n int) []byte {
	if n > maxBufClass {
		return make([]byte, 0, n)
	}
	ci := bufClassFor(n)
	start := bufCursors[ci].n.Add(1)
	for i := uint32(0); i < bufProbes; i++ {
		st := &bufStripes[(start+i)&stripeMask]
		st.mu.Lock()
		if fl := st.free[ci]; len(fl) > 0 {
			b := fl[len(fl)-1]
			fl[len(fl)-1] = nil
			st.free[ci] = fl[:len(fl)-1]
			st.mu.Unlock()
			return b
		}
		st.mu.Unlock()
	}
	return make([]byte, 0, 1<<(minBufShift+ci))
}

// PutBuf returns a buffer to the freelist. Only a buffer whose capacity
// is exactly a class size is kept, so every pooled buffer meets GetBuf's
// bound; any other (nil, oversize, or grown by append) is dropped. The
// caller must not touch b afterward.
func PutBuf(b []byte) {
	c := cap(b)
	if c < 1<<minBufShift || c > maxBufClass || c&(c-1) != 0 {
		return
	}
	ci := bits.Len(uint(c)) - 1 - minBufShift
	b = b[:0]
	start := bufCursors[ci].n.Add(^uint32(0)) + 1 // the stripe the last Get asked first
	for i := uint32(0); i < bufProbes; i++ {
		st := &bufStripes[(start+i)&stripeMask]
		st.mu.Lock()
		fl := st.free[ci]
		if fl == nil {
			// Sized once to the class cap: the slot array never regrows.
			fl = make([][]byte, 0, bufClassCap(ci))
		}
		if len(fl) < cap(fl) {
			st.free[ci] = append(fl, b)
			st.mu.Unlock()
			return
		}
		st.free[ci] = fl
		st.mu.Unlock()
	}
	// Every probed stripe is at capacity: let the GC take it.
}
