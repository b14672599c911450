package sim

import (
	"errors"
	"iter"
	"math/rand"
)

// request is one operation a program yields to the engine.
type request struct {
	op     TraceOp
	addr   Addr
	a, b   uint64
	cycles int64
}

var errAborted = errors.New("sim: run aborted")

// Proc is the handle a simulated program uses to execute on one processor.
// All methods suspend the program until the engine completes the operation
// at the simulated cost; programs are otherwise ordinary Go code.
type Proc struct {
	id  int32
	m   *Machine
	rng *rand.Rand
	now int64

	// The program runs as an iter.Pull coroutine: it yields each request
	// to the engine, which resumes it through next with the result in
	// val. stop aborts it — a fault-plan crash or the end of the run —
	// by making yield return false.
	yield func(request) bool
	next  func() (request, bool)
	stop  func()
	val   uint64

	// watchdog bookkeeping: the last issued request (for diagnostic
	// snapshots) and tracked-operation completions (OpDone).
	lastKind TraceOp
	lastAddr Addr
	ops      int64
	lastOpAt int64
}

func newProc(m *Machine, id int, seed int64) *Proc {
	return &Proc{
		id:  int32(id),
		m:   m,
		rng: rand.New(rand.NewSource(seed*1_000_003 + int64(id)*7919 + 12345)),
	}
}

// ID returns the processor number in [0, Procs).
func (p *Proc) ID() int { return int(p.id) }

// Now returns the current simulated cycle as seen by this processor.
func (p *Proc) Now() int64 { return p.now }

// Rand returns a deterministic pseudo-random int in [0, n).
func (p *Proc) Rand(n int) int { return p.rng.Intn(n) }

// Rand64 returns a deterministic pseudo-random uint64.
func (p *Proc) Rand64() uint64 { return p.rng.Uint64() }

// Read returns the value of a shared word.
func (p *Proc) Read(a Addr) uint64 {
	return p.do(request{op: TraceRead, addr: a})
}

// Write stores v into a shared word.
func (p *Proc) Write(a Addr, v uint64) {
	p.do(request{op: TraceWrite, addr: a, a: v})
}

// Swap atomically stores v and returns the previous value
// (register-to-memory swap).
func (p *Proc) Swap(a Addr, v uint64) uint64 {
	return p.do(request{op: TraceSwap, addr: a, a: v})
}

// CAS atomically replaces old with new if the word equals old, reporting
// whether it did (compare-and-swap).
func (p *Proc) CAS(a Addr, old, new uint64) bool {
	return p.do(request{op: TraceCAS, addr: a, a: old, b: new}) != 0
}

// FetchAdd atomically adds delta and returns the previous value. The paper
// assumes machines without hardware fetch-and-add (it is built in software
// from combining funnels); this primitive exists for baseline ablations.
func (p *Proc) FetchAdd(a Addr, delta uint64) uint64 {
	return p.do(request{op: TraceFetchAdd, addr: a, a: delta})
}

// WaitWhile blocks while the shared word equals v and returns the first
// differing value observed. It models spinning on a locally cached word:
// parked processors consume no simulated (or host) resources until a writer
// invalidates the word. Callers must treat the returned value as a hint and
// re-validate with an atomic operation where needed.
func (p *Proc) WaitWhile(a Addr, v uint64) uint64 {
	return p.do(request{op: TraceWaitWhile, addr: a, a: v})
}

// LocalWork advances this processor's clock by n cycles of private
// computation.
func (p *Proc) LocalWork(n int64) {
	if n <= 0 {
		return
	}
	p.do(request{op: TraceLocalWork, cycles: n})
}

// OpDone marks the completion of one application-level operation for the
// progress watchdog (Config.WatchdogCycles). It costs no simulated
// cycles; programs that do not call it should not enable the watchdog.
func (p *Proc) OpDone() {
	p.m.noteProgress(p)
}

// AppSpan attributes the interval from start to the current cycle to an
// application-level phase (combining, lock-wait) on the configured span
// recorder. It costs no simulated cycles and is free when tracing is off.
func (p *Proc) AppSpan(phase Phase, start int64) {
	if rec := p.m.cfg.Spans; rec != nil && p.now > start {
		rec.RecordSpan(Span{Proc: int(p.id), Start: start, End: p.now, Phase: phase})
	}
}

// OpSpan reports one completed application-level operation (e.g. an
// insert or delete-min) spanning start to the current cycle. It costs no
// simulated cycles and is free when tracing is off.
func (p *Proc) OpSpan(kind string, start int64) {
	if rec := p.m.cfg.Spans; rec != nil {
		rec.RecordOpSpan(int(p.id), kind, start, p.now)
	}
}

// start wraps program in the coroutine the engine drives. An abort
// unwinds the program with errAborted, so its deferred functions run,
// and is swallowed here; any other panic resurfaces from next or stop.
func (p *Proc) start(program func(p *Proc)) {
	p.next, p.stop = iter.Pull(func(yield func(request) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil && r != errAborted {
				panic(r)
			}
		}()
		program(p)
	})
}

// do hands r to the engine and returns its result once resumed.
func (p *Proc) do(r request) uint64 {
	p.lastKind, p.lastAddr = r.op, r.addr
	if !p.yield(r) {
		panic(errAborted)
	}
	return p.val
}
