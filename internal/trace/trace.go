// Package trace collects phase-attributed spans from a simulator run
// into bounded per-processor ring buffers and exports them as Chrome
// trace-event JSON, loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing.
//
// The Collector implements sim.SpanRecorder; attach it with
// sim.Config.Spans. Recording costs no simulated cycles, so a traced
// run's FinalTime is identical to an untraced one, and because the
// engine records in deterministic order, two runs with the same seed and
// configuration export byte-identical traces (compare with Digest).
//
// Timestamps in the exported trace are simulated cycles presented as
// microseconds (1 cycle renders as 1 "us" in Perfetto's UI).
package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"pq/internal/sim"
)

// DefaultSpanCap is the per-processor ring capacity used by NewCollector:
// once a processor has recorded this many spans, each new span evicts its
// oldest one, keeping memory bounded on long runs.
const DefaultSpanCap = 1 << 15

// OpSpan is one application-level operation (insert, delete-min, ...)
// reported through sim.Proc.OpSpan.
type OpSpan struct {
	Proc       int
	Kind       string
	Start, End int64
}

// ring is a bounded drop-oldest buffer of spans.
type ring[T any] struct {
	buf     []T
	start   int // index of the oldest element
	n       int // elements stored
	dropped int64
}

func (r *ring[T]) push(v T) {
	if r.n < cap(r.buf) {
		r.buf = r.buf[:r.n+1]
		r.buf[r.n] = v
		r.n++
		return
	}
	r.buf[r.start] = v
	r.start = (r.start + 1) % r.n
	r.dropped++
}

// items returns the buffered elements oldest-first.
func (r *ring[T]) items() []T {
	out := make([]T, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(r.start+i)%r.n])
	}
	return out
}

// Collector buffers spans per processor. It is not safe for concurrent
// use from arbitrary goroutines, but the simulator's single-baton engine
// guarantees all recording calls are serialized.
type Collector struct {
	spans []ring[sim.Span]
	ops   []ring[OpSpan]
}

// NewCollector sizes a collector for procs processors with the default
// per-processor ring capacity.
func NewCollector(procs int) *Collector {
	return NewCollectorCap(procs, DefaultSpanCap)
}

// NewCollectorCap sizes a collector with an explicit per-processor ring
// capacity (spans beyond it evict oldest-first).
func NewCollectorCap(procs, perProcCap int) *Collector {
	if procs < 1 {
		panic(fmt.Sprintf("trace: procs must be >= 1, got %d", procs))
	}
	if perProcCap < 1 {
		perProcCap = DefaultSpanCap
	}
	c := &Collector{
		spans: make([]ring[sim.Span], procs),
		ops:   make([]ring[OpSpan], procs),
	}
	for i := 0; i < procs; i++ {
		c.spans[i].buf = make([]sim.Span, 0, perProcCap)
		c.ops[i].buf = make([]OpSpan, 0, perProcCap)
	}
	return c
}

// RecordSpan implements sim.SpanRecorder.
func (c *Collector) RecordSpan(s sim.Span) {
	if s.Proc < 0 || s.Proc >= len(c.spans) {
		return
	}
	c.spans[s.Proc].push(s)
}

// RecordOpSpan implements sim.SpanRecorder.
func (c *Collector) RecordOpSpan(proc int, kind string, start, end int64) {
	if proc < 0 || proc >= len(c.ops) {
		return
	}
	c.ops[proc].push(OpSpan{Proc: proc, Kind: kind, Start: start, End: end})
}

// Procs returns the processor count the collector was sized for.
func (c *Collector) Procs() int { return len(c.spans) }

// Spans returns the buffered engine spans of one processor,
// oldest-first. Spans are recorded at completion time, so the list is
// ordered by End, not Start (a spin-wait span begins at park time).
func (c *Collector) Spans(proc int) []sim.Span { return c.spans[proc].items() }

// Dropped reports how many spans (engine + op) were evicted from the
// rings across all processors.
func (c *Collector) Dropped() int64 {
	var n int64
	for i := range c.spans {
		n += c.spans[i].dropped + c.ops[i].dropped
	}
	return n
}

// SpanCount reports how many spans (engine + op) are currently buffered.
func (c *Collector) SpanCount() int {
	n := 0
	for i := range c.spans {
		n += c.spans[i].n + c.ops[i].n
	}
	return n
}

// PhaseTotals sums buffered span durations by phase, in cycles. With an
// unsaturated ring this is a full account of where each processor's
// simulated time went.
func (c *Collector) PhaseTotals() map[sim.Phase]int64 {
	totals := make(map[sim.Phase]int64)
	for i := range c.spans {
		for _, s := range c.spans[i].items() {
			totals[s.Phase] += s.End - s.Start
		}
	}
	return totals
}

// OpTotals counts buffered operation spans and their total cycles, by
// kind, sorted by kind name.
func (c *Collector) OpTotals() []OpTotal {
	agg := map[string]*OpTotal{}
	for i := range c.ops {
		for _, o := range c.ops[i].items() {
			t := agg[o.Kind]
			if t == nil {
				t = &OpTotal{Kind: o.Kind}
				agg[o.Kind] = t
			}
			t.Count++
			t.Cycles += o.End - o.Start
		}
	}
	kinds := make([]string, 0, len(agg))
	for k := range agg {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	out := make([]OpTotal, 0, len(kinds))
	for _, k := range kinds {
		out = append(out, *agg[k])
	}
	return out
}

// OpTotal aggregates the operation spans of one kind.
type OpTotal struct {
	Kind   string
	Count  int
	Cycles int64
}

// chromeEvent is one trace-event in Chrome's JSON array format ("X" =
// complete event with a duration).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace exports every buffered span as Chrome trace-event
// JSON. Operation spans and engine spans share each processor's track;
// Perfetto nests the contained engine spans under their operation. The
// output is deterministic: processors in order, spans oldest-first.
func (c *Collector) WriteChromeTrace(w io.Writer) error {
	var evs []chromeEvent
	evs = append(evs, chromeEvent{
		Name: "process_name", Cat: "__metadata", Ph: "M", Pid: 0, Tid: 0,
		Args: map[string]any{"name": "sim"},
	})
	for proc := range c.spans {
		evs = append(evs, chromeEvent{
			Name: "thread_name", Cat: "__metadata", Ph: "M", Pid: 0, Tid: proc,
			Args: map[string]any{"name": fmt.Sprintf("proc %d", proc)},
		})
		for _, o := range c.ops[proc].items() {
			evs = append(evs, chromeEvent{
				Name: o.Kind, Cat: "op", Ph: "X",
				Ts: o.Start, Dur: o.End - o.Start, Pid: 0, Tid: proc,
			})
		}
		for _, s := range c.spans[proc].items() {
			ev := chromeEvent{
				Name: s.Phase.String(), Cat: "phase", Ph: "X",
				Ts: s.Start, Dur: s.End - s.Start, Pid: 0, Tid: proc,
			}
			if s.Op != 0 && s.Phase != sim.PhaseLocalWork {
				ev.Args = map[string]any{"op": s.Op.String(), "addr": int64(s.Addr)}
			}
			evs = append(evs, ev)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: evs, DisplayTimeUnit: "ms"})
}

// Digest returns a hex SHA-256 of the exported Chrome trace — the value
// determinism tests compare across runs.
func (c *Collector) Digest() (string, error) {
	h := sha256.New()
	if err := c.WriteChromeTrace(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
