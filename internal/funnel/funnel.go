// Package funnel implements combining funnels (Shavit & Zemach, PODC
// 1998) natively on Go goroutines and atomics: randomized combining
// layers in which concurrent operations collide, merge into trees, and
// apply in one shot — plus the paper's PODC 1999 extension, a bounded
// fetch-and-decrement counter with homogeneous combining trees and
// elimination of reversing operations.
//
// Two funnel-based objects are provided: Counter (fetch-and-increment /
// bounded fetch-and-decrement, or plain combining fetch-and-add in
// unbounded mode) and Stack (a lock-free-feeling LIFO whose reversing
// push/pop trees eliminate without touching the central stack).
//
// Under Params.Adaptive (the DefaultParams setting) an operation tries
// the central object once before it publishes anything: one CAS on the
// counter word, or TryLock on the stack's lock. Only when that fails
// does it take a record and run the collision protocol, so the layers
// cost nothing while the central object is not contended — the paper's
// low-load adaption taken to its limit. A direct application is exactly
// a one-member tree leaving the funnel, and an unpublished operation
// cannot be captured, so the protocol's guarantees are unchanged. With
// Adaptive off every operation enters the layers, as in the paper.
package funnel

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// Params tunes a funnel: combining layer widths, collision attempts per
// pass, per-layer linger durations (in spin iterations), and whether each
// goroutine adapts its funnel usage to observed load.
type Params struct {
	// Widths holds each combining layer's width; its length sets the
	// number of layers.
	Widths []int
	// Attempts is the number of collision attempts per pass before the
	// operation tries the central object.
	Attempts int
	// Spin is the per-layer number of linger iterations spent waiting to
	// be collided with after an unsuccessful attempt.
	Spin []int
	// Adaptive enables per-goroutine width/effort adaption, and the
	// central-first step: each operation tries the central object once
	// and enters the layers only if that conflicts.
	Adaptive bool
}

// DefaultParams returns parameters scaled to concurrency level p
// (typically GOMAXPROCS or the expected number of contending goroutines).
func DefaultParams(p int) Params {
	levels := 1
	switch {
	case p >= 224:
		levels = 4
	case p >= 64:
		levels = 3
	case p >= 8:
		levels = 2
	}
	prm := Params{
		Widths:   make([]int, levels),
		Attempts: 3,
		Spin:     make([]int, levels),
		Adaptive: true,
	}
	// Linger iterations scale with expected traffic: with few contenders
	// a partner rarely shows up within any wait.
	spin := p * 4
	if spin < 4 {
		spin = 4
	}
	if spin > 48 {
		spin = 48
	}
	for l := 0; l < levels; l++ {
		w := p >> uint(l+2)
		if w < 1 {
			w = 1
		}
		prm.Widths[l] = w
		prm.Spin[l] = spin
	}
	return prm
}

func (p *Params) levels() int { return len(p.Widths) }

func (p *Params) normalized() Params {
	q := *p
	if len(q.Widths) == 0 {
		q.Widths = []int{1}
	}
	q.Widths = append([]int(nil), q.Widths...)
	for i, w := range q.Widths {
		if w < 1 {
			q.Widths[i] = 1
		}
	}
	if q.Attempts < 1 {
		q.Attempts = 1
	}
	spin := make([]int, len(q.Widths))
	for i := range spin {
		if i < len(q.Spin) && q.Spin[i] > 0 {
			spin[i] = q.Spin[i]
		} else {
			spin[i] = 32
		}
	}
	q.Spin = spin
	return q
}

// Stats counts how operations on a funnel object resolved — useful for
// verifying that combining and elimination actually engage under a given
// workload and parameter set. Counters are updated atomically and may be
// read at any time.
type Stats struct {
	// Combined counts operations absorbed into another operation's tree;
	// Eliminated counts operations retired by meeting a reversing tree;
	// Central counts batches applied to the central object, operations
	// applied by the central-first step included; CentralRetry counts
	// failed central compare-and-swap attempts of trees that left the
	// layers (Counter only).
	Combined, Eliminated, Central, CentralRetry int64
}

// statCounters is the internal atomic representation.
type statCounters struct {
	combined, eliminated, central, centralRetry atomic.Int64
}

func (s *statCounters) snapshot() Stats {
	return Stats{
		Combined:     s.combined.Load(),
		Eliminated:   s.eliminated.Load(),
		Central:      s.central.Load(),
		CentralRetry: s.centralRetry.Load(),
	}
}

// words are a native record's shared words, plus its random source.
// The operand is written before the location store publishes the record,
// so a capturer's location CAS synchronizes with it.
type words[T any] struct {
	location atomic.Uint64 // 0 = not collidable, else layer+1
	sum      atomic.Int64
	result   atomic.Uint64
	item     T
	rng      *rand.Rand
}

// native is the native twin's leaf (see Leaf): records from a sync.Pool,
// layer slots of atomic pointers, waits that yield the processor, and
// atomic stats. Counter and Stack each add their central object.
type native[T any] struct {
	layers [][]atomic.Pointer[Rec[words[T]]]
	pool   sync.Pool
	seed   atomic.Int64
	// The stats take a write on every combine and central application;
	// the pad keeps them off the line of the layer and pool headers,
	// which every operation in the layers reads.
	_     [64]byte
	stats statCounters
}

func newNative[T any](params Params) *native[T] {
	n := &native[T]{layers: make([][]atomic.Pointer[Rec[words[T]]], len(params.Widths))}
	for l, w := range params.Widths {
		n.layers[l] = make([]atomic.Pointer[Rec[words[T]]], w)
	}
	n.pool.New = func() any {
		return &Rec[words[T]]{
			Words:  words[T]{rng: rand.New(rand.NewSource(n.seed.Add(0x1e3779b97f4a7c15)))},
			factor: 1,
		}
	}
	return n
}

// newProtocol builds the layers of a native funnel object over leaf,
// whose layer slots were sized by params.
func newProtocol[W any, L Leaf[struct{}, W]](params Params, leaf L) Protocol[struct{}, W, L] {
	spin := make([]int64, len(params.Spin))
	for i, s := range params.Spin {
		spin[i] = int64(s)
	}
	return NewProtocol[struct{}, W](leaf, params.Widths, params.Attempts, spin, params.Adaptive)
}

func (n *native[T]) Record(struct{}) *Rec[words[T]] { return n.pool.Get().(*Rec[words[T]]) }

// Release clears the operand, so a pooled record holds no item and a pop
// that fails reads the zero value.
func (n *native[T]) Release(_ struct{}, r *Rec[words[T]]) {
	var zero T
	r.Words.item = zero
	n.pool.Put(r)
}

func (n *native[T]) Swap(_ struct{}, layer, width int, r *Rec[words[T]]) *Rec[words[T]] {
	return n.layers[layer][r.Words.rng.Intn(width)].Swap(r)
}

func (n *native[T]) CASLocation(_ struct{}, r *Rec[words[T]], old, new uint64) bool {
	return r.Words.location.CompareAndSwap(old, new)
}

func (n *native[T]) StoreLocation(_ struct{}, r *Rec[words[T]], v uint64) {
	r.Words.location.Store(v)
}

func (n *native[T]) LoadSum(_ struct{}, r *Rec[words[T]]) int64     { return r.Words.sum.Load() }
func (n *native[T]) StoreSum(_ struct{}, r *Rec[words[T]], v int64) { r.Words.sum.Store(v) }

func (n *native[T]) StoreResult(_ struct{}, r *Rec[words[T]], v uint64) {
	r.Words.result.Store(v)
}

// AwaitResult spins, yielding, until a parent delivers the result.
func (n *native[T]) AwaitResult(_ struct{}, r *Rec[words[T]]) uint64 {
	v := r.Words.result.Load()
	for v == 0 {
		runtime.Gosched()
		v = r.Words.result.Load()
	}
	return v
}

// Linger yields up to k times, checking before each yield whether r was
// captured.
func (n *native[T]) Linger(_ struct{}, r *Rec[words[T]], loc uint64, k int64) bool {
	for s := int64(0); s < k; s++ {
		if r.Words.location.Load() != loc {
			return true
		}
		runtime.Gosched()
	}
	return false
}

// Backoff yields once after a first failure and exponentially more after
// each further one, up to 64 yields.
func (n *native[T]) Backoff(_ struct{}, fails int) {
	for i := 0; i < 1<<uint(min(fails, 6)); i++ {
		runtime.Gosched()
	}
}

func (n *native[T]) PassStart(struct{}) int64 { return 0 }
func (n *native[T]) PassEnd(struct{}, int64)  {}

func (n *native[T]) Count(_ struct{}, e Event, _ int) {
	switch e {
	case Combine:
		n.stats.combined.Add(1)
	case Eliminate:
		n.stats.eliminated.Add(2)
	case Central:
		n.stats.central.Add(1)
	case CentralRetry:
		n.stats.centralRetry.Add(1)
	}
}
