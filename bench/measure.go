package main

import (
	"math"
	"math/bits"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// clock is the time source of the load loops, so that segment, percentile
// and due-time accounting can be tested against a fake.
type clock interface {
	// Now is nanoseconds since an arbitrary origin, monotonic.
	Now() int64
	// SleepUntil returns at or after t.
	SleepUntil(t int64)
}

type wallClock struct{ origin time.Time }

func newWallClock() wallClock { return wallClock{origin: time.Now()} }

func (c wallClock) Now() int64 { return int64(time.Since(c.origin)) }

func (c wallClock) SleepUntil(t int64) {
	if d := t - c.Now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// kernelClock sleeps in the kernel with a raw nanosleep. A Go timer will
// not do for an open-loop pacer at tens of thousands of ops a second: the
// runtime rounds a sub-millisecond sleep up to a millisecond whenever the
// whole process is idle. Nor will a blocking syscall: the runtime hands
// the sleeping thread's processor to another thread and back, which costs
// tens of microseconds of CPU a sleep. The raw call keeps the processor,
// so the goroutine that sleeps this way should have nothing else queued
// behind it (pace yields first) and should sleep briefly.
type kernelClock struct{ wallClock }

func (c kernelClock) SleepUntil(t int64) {
	for d := t - c.Now(); d > 0; d = t - c.Now() {
		ts := syscall.NsecToTimespec(d)
		// An early return (a signal, such as the runtime's preemption
		// request) just loops.
		syscall.RawSyscall(syscall.SYS_NANOSLEEP, uintptr(unsafe.Pointer(&ts)), 0, 0)
	}
}

// hist is a log-linear latency histogram in nanoseconds: 128 buckets per
// power of two (under 0.8 % wide), fixed size, no allocation on Observe.
// Quantiles interpolate inside the bucket by rank, so they carry the
// sample counts' digits rather than snapping to bucket edges.
const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histMaxBits = 36 // values at or above 2^36 ns (68 s) land in the last bucket
	histBuckets = (histMaxBits - histSubBits + 1) * histSub
)

type hist struct {
	counts [histBuckets]uint32
	n      uint64
	max    uint64
}

func histBucket(v uint64) int {
	if v < histSub {
		return int(v)
	}
	if v >= 1<<histMaxBits {
		return histBuckets - 1
	}
	shift := bits.Len64(v) - histSubBits - 1
	return (shift+1)*histSub + int(v>>shift) - histSub
}

// histBounds is the half-open value range [lo, hi) of bucket b.
func histBounds(b int) (lo, hi float64) {
	if b < histSub {
		return float64(b), float64(b + 1)
	}
	shift := b/histSub - 1
	top := uint64(b%histSub + histSub)
	return float64(top << shift), float64((top + 1) << shift)
}

func (h *hist) Observe(ns int64) {
	v := uint64(max(ns, 0))
	h.counts[histBucket(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

func (h *hist) Merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.max = max(h.max, o.max)
}

// countBelow counts the samples in buckets wholly below ns.
func (h *hist) countBelow(ns int64) (n uint64) {
	for _, c := range h.counts[:histBucket(uint64(max(ns, 0)))] {
		n += uint64(c)
	}
	return n
}

// Quantile returns the q-quantile in nanoseconds (0 with no samples).
func (h *hist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := histBounds(b)
			return math.Min(lo+(hi-lo)*(rank-cum)/float64(c), float64(h.max))
		}
		cum += float64(c)
	}
	return float64(h.max)
}

// supported reports whether n samples leave at least ten beyond the
// q-quantile — the rule for which percentile a sample may report.
func supported(n uint64, q float64) bool {
	return float64(n)*(1-q) >= 10-1e-6 // 1-0.9 is not exactly a tenth
}

// topQuantile is the highest of the usual percentiles that n samples
// support, or 0 when not even the median has ten samples beyond it.
func topQuantile(n uint64) float64 {
	top := 0.0
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 0.9999} {
		if supported(n, q) {
			top = q
		}
	}
	return top
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// bestDecile is the value a tenth of the way in from the better end of xs:
// the 10th percentile when lower is better, the 90th when higher is. It is
// how per-segment values become one reported value. A neighbour on a
// shared host only ever slows a segment down, and slows a varying share of
// them, so the median of the segments moves with that share while the
// better decile stays among the undisturbed ones; measured over repeated
// runs on the sandbox it was about half as noisy as the median.
func bestDecile(xs []float64, better string) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := len(s) / 10
	if better == "higher" {
		i = len(s) - 1 - i
	}
	return s[i]
}

// quartiles matches Python's statistics.quantiles(xs, n=4), the method the
// driver applies to ten runs; it needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the quartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 || math.IsNaN(q1) {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}

// cpuMicros is this process's user+system CPU time so far.
func cpuMicros() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // Getrusage(RUSAGE_SELF) fails only on a bad pointer
	}
	us := func(tv syscall.Timeval) float64 { return float64(tv.Sec)*1e6 + float64(tv.Usec) }
	return us(ru.Utime) + us(ru.Stime)
}

// memSnapshot is what the proc.* metrics and mem_mb are derived from.
type memSnapshot struct {
	mallocs uint64
	gcs     uint32
	pauseNs uint64
	sys     uint64
}

func readMem() memSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnapshot{mallocs: ms.Mallocs, gcs: ms.NumGC, pauseNs: ms.PauseTotalNs, sys: ms.Sys}
}

// timeLoop calls fn(batch) repeatedly for about dur and returns the mean
// nanoseconds per iteration and the iterations run.
func timeLoop(dur time.Duration, batch int, fn func(n int)) (nsPerIter float64, iters int) {
	fn(batch) // warm caches and lazy pools
	t0 := time.Now()
	for {
		fn(batch)
		iters += batch
		if el := time.Since(t0); el >= dur {
			return float64(el.Nanoseconds()) / float64(iters), iters
		}
	}
}

// allocsPer runs fn once and returns heap allocations per unit of n.
func allocsPer(n int, fn func()) float64 {
	before := readMem().mallocs
	fn()
	return float64(readMem().mallocs-before) / float64(n)
}
