// Package obs provides the serving stack's hot-path observability
// primitives: lock-free striped counters and fixed-bucket power-of-two
// histograms whose record paths are allocation-free and wait-free (one
// atomic add), cheap enough to sit on every request the pqd server
// handles. The simulator packages have their own cycle-accurate
// instrumentation (internal/trace, simpq.Metrics); this package is the
// wall-clock, in-vivo counterpart for internal/server and internal/wal.
//
// Contention discipline: both Counter and Histogram stripe their state
// across padded cache lines and take a caller-supplied hint (connection
// id, shard index, worker number...) to pick a stripe, so concurrent
// recorders on different connections do not bounce a shared cache line.
// Reads (Load, Snapshot) sum across stripes and are approximate while
// writes are in flight — exactly the quiescent-consistency contract the
// queues themselves offer.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// cacheLine is the assumed coherence granularity for padding.
const cacheLine = 64

// paddedInt64 is one counter stripe on its own cache line.
type paddedInt64 struct {
	v atomic.Int64
	_ [cacheLine - 8]byte
}

// Counter is a monotonically adjustable sum striped across cache lines.
// The zero value is not usable; build with NewCounter.
type Counter struct {
	stripes []paddedInt64
	mask    uint64
}

// NewCounter builds a counter with at least the given number of stripes
// (rounded up to a power of two, clamped to [1, 64]).
func NewCounter(stripes int) *Counter {
	return &Counter{stripes: make([]paddedInt64, stripeCount(stripes)),
		mask: uint64(stripeCount(stripes) - 1)}
}

func stripeCount(n int) int {
	if n < 1 {
		n = 1
	}
	if n > 64 {
		n = 64
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Add adds n to the stripe selected by hint. Allocation-free.
func (c *Counter) Add(hint uint64, n int64) {
	c.stripes[hint&c.mask].v.Add(n)
}

// Inc adds one to the stripe selected by hint.
func (c *Counter) Inc(hint uint64) { c.Add(hint, 1) }

// Load sums every stripe. Approximate while writers are in flight.
func (c *Counter) Load() int64 {
	var t int64
	for i := range c.stripes {
		t += c.stripes[i].v.Load()
	}
	return t
}

// Histogram is a fixed-bucket power-of-two histogram: bucket i counts
// observations v < 2^(minShift+i), with a final overflow bucket beyond
// 2^maxShift. Observe is one atomic add — no locks, no allocation, no
// search — making it safe for per-request recording. Values are plain
// int64s; latency recorders pass nanoseconds, size recorders pass
// counts.
type Histogram struct {
	minShift, maxShift int
	nbuckets           int // finite buckets + 1 overflow
	stripes            []histStripe
	mask               uint64
}

// histStripe is one stripe's buckets plus running sum. Stripes are
// sized to whole cache lines so neighbours never share one.
type histStripe struct {
	sum    atomic.Int64
	counts []atomic.Uint64
	_      [cacheLine - 8 - 24]byte
}

// NewHistogram builds a histogram with the given stripe count and
// bucket range: finite bucket upper bounds 2^minShift .. 2^maxShift
// plus an overflow bucket. Panics if maxShift is not in
// (minShift, 62].
func NewHistogram(stripes, minShift, maxShift int) *Histogram {
	if minShift < 0 || maxShift <= minShift || maxShift > 62 {
		panic("obs: NewHistogram shift range invalid")
	}
	n := stripeCount(stripes)
	h := &Histogram{
		minShift: minShift,
		maxShift: maxShift,
		nbuckets: maxShift - minShift + 2,
		stripes:  make([]histStripe, n),
		mask:     uint64(n - 1),
	}
	for i := range h.stripes {
		h.stripes[i].counts = make([]atomic.Uint64, h.nbuckets)
	}
	return h
}

// LatencyShifts are the bucket bounds used for wall-clock latency in
// nanoseconds: 256ns up to ~34s, 28 finite buckets. Fine enough to
// separate a 2µs in-memory op from a 10ms fsync, coarse enough that a
// snapshot stays small.
const (
	LatencyMinShift = 8  // first bucket < 256ns
	LatencyMaxShift = 35 // last finite bucket < ~34.4s
)

// NewLatencyHistogram builds a histogram with the standard nanosecond
// latency bounds.
func NewLatencyHistogram(stripes int) *Histogram {
	return NewHistogram(stripes, LatencyMinShift, LatencyMaxShift)
}

// bucketOf maps a value to its bucket index.
func (h *Histogram) bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	k := bits.Len64(uint64(v)) // v < 2^k
	switch {
	case k <= h.minShift:
		return 0
	case k > h.maxShift:
		return h.nbuckets - 1
	default:
		return k - h.minShift
	}
}

// Observe records one value into the stripe selected by hint.
// Allocation-free: one bounds computation and two atomic adds.
func (h *Histogram) Observe(hint uint64, v int64) {
	s := &h.stripes[hint&h.mask]
	s.counts[h.bucketOf(v)].Add(1)
	s.sum.Add(v)
}

// Snapshot sums every stripe into an immutable view. It allocates; call
// it from scrape/stats paths, not hot paths.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: make([]float64, h.nbuckets-1),
		Counts: make([]uint64, h.nbuckets),
	}
	for i := 0; i < h.nbuckets-1; i++ {
		s.Bounds[i] = math.Ldexp(1, h.minShift+i) // 2^(minShift+i)
	}
	for i := range h.stripes {
		st := &h.stripes[i]
		s.Sum += st.sum.Load()
		for b := range st.counts {
			c := st.counts[b].Load()
			s.Counts[b] += c
			s.Count += c
		}
	}
	return s
}

// HistSnapshot is a point-in-time histogram view. Counts has one entry
// per finite bound plus a final overflow bucket; bucket i counts
// observations below Bounds[i].
type HistSnapshot struct {
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    int64
}

// Mean is the average observed value (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the p-quantile (0 <= p <= 1) by linear
// interpolation inside the bucket the rank falls in. Ranks landing in
// the overflow bucket report the last finite bound — the histogram
// cannot see beyond it.
func (s HistSnapshot) Quantile(p float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := p * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next || i == len(s.Counts)-1 {
			if i >= len(s.Bounds) {
				return s.Bounds[len(s.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Bounds[i]
			frac := (rank - cum) / float64(c)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
		cum = next
	}
	return s.Bounds[len(s.Bounds)-1]
}

// WALMetrics is the write-ahead log's instrumentation hook
// (wal.Options.Metrics): the committer leading each wal group-commit
// round records its fsync's wall time and how many appended records
// that fsync made durable. Rounds never overlap, so there is one
// recorder at a time. Either field may be nil to skip that series.
type WALMetrics struct {
	// FsyncNanos observes fsync(2) wall time in nanoseconds.
	FsyncNanos *Histogram
	// CommitRecords observes appended records per fsync — the group
	// commit batching factor as a distribution (Appends/Syncs is only
	// its mean). An idle interval tick neither fsyncs nor observes a 0,
	// so its count is the log's Syncs and, once the log is closed, its
	// sum the log's Appends.
	CommitRecords *Histogram
}
