package main

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// A timed run is a warm-up followed by nSegments equal segments. Slot 0 is
// the warm-up, slots 1..nSegments the segments, and the last slot collects
// what completes after the final segment ended. The segments are many and
// short because every reported value is a median over them: on a shared
// host, where a neighbour slows the machine for a second at a time and
// stalls it for milliseconds about once a second, a median over many short
// segments ignores the disturbed ones, and a median over a few long ones
// cannot.
const (
	nSegments = 50
	slotWarm  = 0
	slotTail  = nSegments + 1
	nSlots    = nSegments + 2
)

// outcome is how one op ended; the first two double as the op kinds that
// latency is recorded for.
type outcome int

const (
	kInsert outcome = iota // insert acknowledged
	kDelete                // delete-min returned an item
	kEmpty                 // delete-min found the queue empty
	kFailed                // error, shed after retries, or corrupt delivery
	nOutcomes
)

// caller is one goroutine's handle on the system under test.
type caller interface {
	insert(pri int, id uint64) error
	// deleteMin returns the delivered id and the priority the system
	// reported for it; ok=false means the queue appeared empty.
	deleteMin() (id uint64, pri int, ok bool, err error)
}

// slotCounts counts one caller's completed ops in one slot, by outcome.
type slotCounts [nOutcomes]int64

func (c slotCounts) done() int64      { return c[kInsert] + c[kDelete] }
func (c slotCounts) attempted() int64 { return c.done() + c[kEmpty] + c[kFailed] }

// kLate indexes, beside kInsert and kDelete, the histogram of how late
// open-loop ops began.
const kLate = 2

// segHists holds one segment's samples: insert latency, delete-min
// latency, and open-loop start lateness.
type segHists [3]hist

// recorder holds every segment's samples from all callers.
type recorder struct {
	mu   sync.Mutex
	segs [nSegments]segHists
}

// callerRec is everything one caller records. Each caller owns one, so
// the hot path takes no lock and shares no cache line: samples go into a
// private histogram set for the segment the caller is in, which is merged
// into the shared recorder when the caller moves to another segment.
type callerRec struct {
	counts [nSlots]slotCounts
	shared *recorder
	cur    segHists
	curSeg int // segment (0-based) that cur belongs to
	// acked and delivered feed the exactly-once audit.
	acked, delivered multiset
	backlogMax       int64
}

// observe files one sample under segment seg (0-based).
func (r *callerRec) observe(seg int, kind int, ns int64) {
	if seg != r.curSeg {
		r.flush()
		r.curSeg = seg
	}
	r.cur[kind].Observe(ns)
}

// flush merges the private samples into the shared recorder; the caller
// runs it once more when its loop has ended.
func (r *callerRec) flush() {
	r.shared.mu.Lock()
	for k := range r.cur {
		if r.cur[k].n > 0 {
			r.shared.segs[r.curSeg][k].Merge(&r.cur[k])
		}
	}
	r.shared.mu.Unlock()
	r.cur = segHists{}
}

// do runs one op against c, feeds the audit and reports how it ended.
func (r *callerRec) do(c caller, insert bool, pri int, id uint64) outcome {
	if insert {
		if err := c.insert(pri, id); err != nil {
			return kFailed
		}
		r.acked.add(id)
		return kInsert
	}
	got, gotPri, ok, err := c.deleteMin()
	switch {
	case err != nil:
		return kFailed
	case !ok:
		return kEmpty
	}
	r.delivered.add(got)
	if idPri(got) != gotPri {
		return kFailed
	}
	return kDelete
}

// segClock publishes which slot the run is in and records when each slot
// began, in wall time and in process CPU time.
type segClock struct {
	cur   atomic.Int32
	flips [nSlots]int64
	cpu   [nSlots]float64
}

func (sc *segClock) mark(clk clock, slot int) {
	sc.flips[slot] = clk.Now()
	sc.cpu[slot] = cpuMicros()
	sc.cur.Store(int32(slot))
}

// slotBounds lays out a run starting at start: bounds[s] is when slot s
// is due to begin.
func slotBounds(start, warmNs, segNs int64) (bounds [nSlots]int64) {
	bounds[slotWarm] = start
	for slot := 1; slot <= slotTail; slot++ {
		bounds[slot] = start + warmNs + int64(slot-1)*segNs
	}
	return bounds
}

// run enters each slot at its bound, returning when the tail slot has
// begun; closed-loop callers stop when they see the tail slot.
func (sc *segClock) run(clk clock, bounds [nSlots]int64) {
	for slot := slotWarm; slot <= slotTail; slot++ {
		clk.SleepUntil(bounds[slot])
		sc.mark(clk, slot)
	}
}

// closedLoop issues stream's ops back to back until the tail slot begins.
// An op is attributed to the slot in which it completed. Every
// sampleEvery-th op is timed; sampleEvery is a power of two (1 times all).
func closedLoop(clk clock, sc *segClock, c caller, stream opStream, callerIdx, sampleEvery int, rec *callerRec) {
	var seq uint64
	for i := 0; sc.cur.Load() != slotTail; i++ {
		insert, pri := stream.at(i)
		var id uint64
		if insert {
			id = makeID(callerIdx, seq, pri)
			seq++
		}
		timed := i&(sampleEvery-1) == 0
		var t0 int64
		if timed {
			t0 = clk.Now()
		}
		out := rec.do(c, insert, pri, id)
		var t1 int64
		if timed {
			t1 = clk.Now()
		}
		slot := int(sc.cur.Load())
		rec.counts[slot][out]++
		if timed && slot >= 1 && slot <= nSegments && out <= kDelete {
			rec.observe(slot-1, int(out), t1-t0)
		}
	}
	rec.flush()
}

// openSchedule is a fixed-rate arrival schedule: op g is due at
// start + g*interval, whoever ends up issuing it.
type openSchedule struct {
	start    int64   // due time of op 0
	interval float64 // ns between consecutive ops
	// bounds[s] is when slot s begins; bounds[slotTail] ends the schedule.
	bounds [nSlots]int64
}

func newOpenSchedule(bounds [nSlots]int64, rate float64) openSchedule {
	return openSchedule{start: bounds[slotWarm], interval: 1e9 / rate, bounds: bounds}
}

func (s *openSchedule) due(g int64) int64 { return s.start + int64(float64(g)*s.interval) }

// slotAt is the slot whose time range holds t (the tail slot after the end).
func (s *openSchedule) slotAt(t int64) int {
	return sort.Search(slotTail, func(slot int) bool { return t < s.bounds[slot+1] })
}

// scheduledBy is how many ops are due at or before t.
func (s *openSchedule) scheduledBy(t int64) int64 {
	if t < s.start {
		return 0
	}
	return int64(float64(t-s.start)/s.interval) + 1
}

// pace releases the schedule's ops in order, each no earlier than its due
// time, into ready, and closes ready when the schedule ends. It runs on
// its own goroutine with a clock whose SleepUntil is precise (kernelClock).
// Before it sleeps it yields its processor once, so that the callers it
// just woke start on this processor instead of waiting for another thread
// to wake up and steal them.
func pace(clk clock, s *openSchedule, ready chan<- int64) {
	defer close(ready)
	end := s.bounds[slotTail]
	for g := int64(0); ; {
		now := clk.Now()
		for ; s.due(g) <= now; g++ {
			if s.due(g) >= end {
				return
			}
			ready <- g
		}
		if s.due(g) >= end {
			return
		}
		runtime.Gosched()
		clk.SleepUntil(s.due(g))
	}
}

// openLoop issues the ops the pacer releases, timing each from its due
// time, so that time an op spent waiting for a free caller, or behind a
// slow earlier op, counts against the system. An op's latency is filed
// under the segment it was due in, its completion under the slot it
// completed in (which is what the achieved rate counts). started counts
// ops begun by all callers, for the backlog.
func openLoop(clk clock, s *openSchedule, c caller, stream opStream, w int, ready <-chan int64, started *atomic.Int64, rec *callerRec) {
	var seq uint64
	for g := range ready {
		due := s.due(g)
		insert, pri := stream.at(int(g))
		var id uint64
		if insert {
			id = makeID(w, seq, pri)
			seq++
		}
		begin := clk.Now()
		if backlog := s.scheduledBy(begin) - started.Add(1); backlog > rec.backlogMax {
			rec.backlogMax = backlog
		}
		out := rec.do(c, insert, pri, id)
		end := clk.Now()

		rec.counts[s.slotAt(end)][out]++
		if dueSlot := s.slotAt(due); dueSlot >= 1 && dueSlot <= nSegments {
			rec.observe(dueSlot-1, kLate, begin-due)
			if out <= kDelete {
				rec.observe(dueSlot-1, int(out), end-due)
			}
		}
	}
	rec.flush()
}

// runCallers starts one goroutine per caller running body and waits for
// all of them, with whileRunning on the calling goroutine in between.
func runCallers(n int, body func(i int), whileRunning func()) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(i)
		}()
	}
	whileRunning()
	wg.Wait()
}
