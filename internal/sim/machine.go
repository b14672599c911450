package sim

import (
	"errors"
	"fmt"
)

// word is one word of simulated shared memory.
type word struct {
	val uint64
	// busyUntil is the cycle at which the word's home module finishes the
	// access it is currently serving; later accesses queue behind it.
	busyUntil int64
	// sharers is a bitmap of processors holding a valid cached copy.
	sharers [MaxProcs / 64]uint64
	// waiters are processors parked on this word by WaitWhile.
	waiters []waiter
}

type waiter struct {
	proc  int32
	while uint64
	since int64
}

// pageWords is the granularity of lazy page allocation for simulated
// memory: pages materialize on first touch, so large address spaces (bin
// arrays sized for worst-case occupancy) cost host memory only for words
// actually used.
const pageWords = 1 << 12

// Machine is a simulated multiprocessor. Construct it with New, allocate
// shared memory with Alloc and initialize it with SetWord, then call Run
// with the program every processor executes.
type Machine struct {
	cfg    Config
	pages  [][]word
	nalloc int

	evq    eventWheel
	seq    uint64
	now    int64
	procs  []*Proc
	events int64
	ran    bool

	// profiling state (nil unless Config.Profile)
	profile map[Addr]*wordStats
	labels  []label

	procEvents []int64

	// engine counters for Stats
	memOps      int64
	stallCycles int64

	// fault-injection and watchdog state
	faults       *faultState // nil unless Config.Faults is set
	lastProgress int64       // cycle of the last Proc.OpDone
	doneProcs    []bool      // programs that returned normally
}

// New creates a machine with the given configuration.
func New(cfg Config) (*Machine, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:   cfg,
		pages: make([][]word, (cfg.MemoryWords+pageWords-1)/pageWords),
	}
	if cfg.Profile {
		m.profile = make(map[Addr]*wordStats)
	}
	m.procs = make([]*Proc, cfg.Procs)
	m.procEvents = make([]int64, cfg.Procs)
	m.doneProcs = make([]bool, cfg.Procs)
	for i := range m.procs {
		m.procs[i] = newProc(m, i, cfg.Seed)
	}
	if cfg.Faults != nil {
		m.faults = newFaultState(cfg.Faults, cfg.Procs, cfg.Seed)
	}
	return m, nil
}

// Procs returns the number of processors.
func (m *Machine) Procs() int { return m.cfg.Procs }

// Alloc reserves n contiguous zeroed words of shared memory and returns the
// address of the first. It panics if the configured memory is exhausted,
// which indicates a misconfigured MemoryWords, not a runtime condition.
func (m *Machine) Alloc(n int) Addr {
	if n < 0 || m.nalloc+n > m.cfg.MemoryWords {
		panic(fmt.Sprintf("sim: out of simulated memory (have %d words, want %d more)", m.cfg.MemoryWords, n))
	}
	a := Addr(m.nalloc)
	m.nalloc += n
	return a
}

// word returns the backing storage for address a, materializing its page
// on first touch.
func (m *Machine) word(a Addr) *word {
	pg := m.pages[a/pageWords]
	if pg == nil {
		pg = make([]word, pageWords)
		m.pages[a/pageWords] = pg
	}
	return &pg[a%pageWords]
}

// SetWord initializes a word before (or inspects state between) runs. It
// charges no simulated cost and must not be called while Run is executing.
func (m *Machine) SetWord(a Addr, v uint64) { m.word(a).val = v }

// Word returns the current value of a word without charging simulated cost.
// Intended for initialization and post-run verification.
func (m *Machine) Word(a Addr) uint64 { return m.word(a).val }

// Parked describes a processor blocked in WaitWhile, for post-mortem
// diagnostics after a deadlocked run.
type Parked struct {
	Proc  int
	Addr  Addr
	While uint64
}

// ParkedProcs lists processors currently parked in WaitWhile. Only
// meaningful after Run returns (typically with ErrDeadlock).
func (m *Machine) ParkedProcs() []Parked {
	var out []Parked
	for pi, pg := range m.pages {
		if pg == nil {
			continue
		}
		for wi := range pg {
			for _, wt := range pg[wi].waiters {
				out = append(out, Parked{
					Proc:  int(wt.proc),
					Addr:  Addr(pi*pageWords + wi),
					While: wt.while,
				})
			}
		}
	}
	return out
}

// ErrDeadlock is returned by Run when no processor can make progress: the
// event queue is empty but some processors are still parked in WaitWhile.
var ErrDeadlock = errors.New("sim: deadlock: all runnable processors blocked in WaitWhile")

// ErrEventLimit is returned by Run when the MaxEvents safety valve trips.
var ErrEventLimit = errors.New("sim: event limit exceeded (possible livelock)")

// Run executes program on every processor until all of them return. It may
// be called only once per Machine. The engine resumes exactly one processor
// at a time, so programs need no synchronization beyond the Proc API. A
// panic in program propagates out of Run.
func (m *Machine) Run(program func(p *Proc)) (Stats, error) {
	if m.ran {
		return Stats{}, errors.New("sim: Run called twice on the same Machine")
	}
	m.ran = true

	for _, p := range m.procs {
		p.start(program)
	}
	// However Run ends, abort every program still suspended so that its
	// deferred functions run and its coroutine is released.
	defer func() {
		for _, p := range m.procs {
			p.stop()
		}
	}()
	// Seed the fault plan's crash enactments first, then one start event
	// per processor at time zero; seq ordering makes a crash at cycle t
	// take effect before any resumption scheduled for the same cycle.
	if m.faults != nil {
		for proc, at := range m.faults.crashAt {
			if at >= 0 {
				m.seq++
				m.evq.push(event{time: at, seq: m.seq, proc: int32(proc), kind: evCrash})
			}
		}
	}
	for i := range m.procs {
		m.schedule(0, int32(i), 0)
	}

	running := len(m.procs)
	var err error
	for running > 0 {
		if m.evq.len() == 0 {
			err = ErrDeadlock
			break
		}
		if m.events >= m.cfg.MaxEvents {
			err = ErrEventLimit
			break
		}
		e := m.evq.pop()
		m.events++
		if e.time > m.now {
			m.now = e.time
		}
		if wd := m.cfg.WatchdogCycles; wd > 0 && m.now-m.lastProgress > wd {
			err = m.snapshot()
			break
		}
		if fs := m.faults; fs != nil {
			if e.kind == evCrash {
				// Enact a crash-stop: the processor executes nothing
				// further. Its program is aborted here; a parked
				// processor is dropped from its waiter list lazily by
				// wakeWaiters.
				if !fs.crashed[e.proc] && !m.doneProcs[e.proc] {
					fs.crashed[e.proc] = true
					m.procs[e.proc].stop()
					running--
				}
				continue
			}
			if fs.crashed[e.proc] {
				continue // stale resumption of a crashed processor
			}
		}
		m.procEvents[e.proc]++
		p := m.procs[e.proc]
		p.now = m.now
		p.val = e.val
		if r, ok := p.next(); ok {
			m.handle(p, r)
		} else {
			m.doneProcs[e.proc] = true
			running--
		}
	}
	procOps := make([]int64, len(m.procs))
	for i, p := range m.procs {
		procOps[i] = p.ops
	}
	return Stats{
		FinalTime:   m.now,
		Events:      m.events,
		MemOps:      m.memOps,
		StallCycles: m.stallCycles,
		ProcOps:     procOps,
	}, err
}

func (m *Machine) schedule(t int64, proc int32, val uint64) {
	if m.faults != nil {
		// A resumption landing inside a stall window is delayed to the
		// window's end; the processor is frozen, its memory state intact.
		t = m.faults.stallAdjust(proc, t)
	}
	m.seq++
	m.evq.push(event{time: t, seq: m.seq, proc: proc, val: val})
}

// noteProgress records the completion of one tracked application-level
// operation (Proc.OpDone). Called from the program while it holds the
// execution baton, so no locking is needed.
func (m *Machine) noteProgress(p *Proc) {
	if p.now > m.lastProgress {
		m.lastProgress = p.now
	}
	p.ops++
	p.lastOpAt = p.now
}

// CrashedProcs lists processors crash-stopped by the fault plan, in
// processor order. Only meaningful after Run returns.
func (m *Machine) CrashedProcs() []int {
	if m.faults == nil {
		return nil
	}
	var out []int
	for p, c := range m.faults.crashed {
		if c {
			out = append(out, p)
		}
	}
	return out
}

// handle services one memory request and schedules the processor's
// resumption at the completion time dictated by the cost model.
func (m *Machine) handle(p *Proc, r request) {
	c := &m.cfg
	if r.op != TraceLocalWork {
		m.memOps++
	}
	switch r.op {
	case TraceLocalWork:
		done := m.now + r.cycles
		m.span(p.id, done, PhaseLocalWork, TraceLocalWork, 0)
		m.schedule(done, p.id, 0)

	case TraceRead:
		w := m.word(r.addr)
		if w.cached(p.id) {
			done := m.now + c.LocalCost
			m.span(p.id, done, PhaseLocalAccess, TraceRead, r.addr)
			m.schedule(done, p.id, w.val)
			return
		}
		done := m.readMiss(r.addr, w)
		m.noteStall(p.id, done, TraceRead, r.addr)
		w.setSharer(p.id)
		m.schedule(done, p.id, w.val)

	case TraceWrite:
		w := m.word(r.addr)
		done := m.mutate(r.addr, w, p.id, TraceWrite)
		old := w.val
		w.val = r.a
		w.invalidateExcept(p.id)
		m.schedule(done, p.id, 0)
		if old != w.val {
			m.wakeWaiters(r.addr, done)
		}

	case TraceSwap:
		w := m.word(r.addr)
		done := m.mutate(r.addr, w, p.id, TraceSwap)
		old := w.val
		w.val = r.a
		w.invalidateExcept(p.id)
		m.schedule(done, p.id, old)
		if old != w.val {
			m.wakeWaiters(r.addr, done)
		}

	case TraceCAS:
		w := m.word(r.addr)
		done := m.mutate(r.addr, w, p.id, TraceCAS)
		if w.val == r.a {
			w.val = r.b
			w.invalidateExcept(p.id)
			m.schedule(done, p.id, 1)
			if r.a != r.b {
				m.wakeWaiters(r.addr, done)
			}
		} else {
			w.setSharer(p.id)
			m.schedule(done, p.id, 0)
		}

	case TraceFetchAdd:
		w := m.word(r.addr)
		done := m.mutate(r.addr, w, p.id, TraceFetchAdd)
		old := w.val
		w.val = old + r.a
		w.invalidateExcept(p.id)
		m.schedule(done, p.id, old)
		if r.a != 0 {
			m.wakeWaiters(r.addr, done)
		}

	case TraceWaitWhile:
		w := m.word(r.addr)
		if w.val != r.a {
			// The probe observes a new value: charge one read.
			if w.cached(p.id) {
				done := m.now + c.LocalCost
				m.span(p.id, done, PhaseLocalAccess, TraceWaitWhile, r.addr)
				m.schedule(done, p.id, w.val)
				return
			}
			done := m.readMiss(r.addr, w)
			m.noteStall(p.id, done, TraceWaitWhile, r.addr)
			w.setSharer(p.id)
			m.schedule(done, p.id, w.val)
			return
		}
		// Park. The processor spins on its locally cached copy, which
		// costs nothing until a writer invalidates it.
		w.setSharer(p.id)
		w.waiters = append(w.waiters, waiter{proc: p.id, while: r.a, since: m.now})

	default:
		panic(fmt.Sprintf("sim: unknown request op %d", r.op))
	}
}

// span reports an engine-attributed interval starting now; free when no
// recorder is configured.
func (m *Machine) span(proc int32, end int64, phase Phase, op TraceOp, addr Addr) {
	if rec := m.cfg.Spans; rec != nil {
		rec.RecordSpan(Span{Proc: int(proc), Start: m.now, End: end, Phase: phase, Op: op, Addr: addr})
	}
}

// noteStall books a remote access finishing at done as memory-stall time.
func (m *Machine) noteStall(proc int32, done int64, op TraceOp, addr Addr) {
	m.stallCycles += done - m.now
	m.span(proc, done, PhaseMemStall, op, addr)
}

// mutate charges a write-type access (write, swap, CAS, add). A
// processor holding the only cached copy owns the line (MESI M state) and
// mutates it locally; anyone else pays a remote access with occupancy.
// Parked waiters force the remote path so their wake-up accounting stays
// attached to the word's home module.
func (m *Machine) mutate(a Addr, w *word, proc int32, op TraceOp) int64 {
	if w.cached(proc) && w.soleSharer(proc) && len(w.waiters) == 0 {
		done := m.now + m.cfg.LocalCost
		m.span(proc, done, PhaseLocalAccess, op, a)
		return done
	}
	done := m.remoteAccess(a, w)
	m.noteStall(proc, done, op, a)
	return done
}

// readMiss charges a read miss. A line some processor already caches is
// served cache-to-cache at remote latency without occupying the word's
// home module; only a line nobody shares goes to the module and queues on
// its occupancy.
func (m *Machine) readMiss(a Addr, w *word) int64 {
	if w.anySharer() {
		return m.now + m.cfg.RemoteCost
	}
	return m.remoteAccess(a, w)
}

// remoteAccess charges a remote access to w's home module and returns the
// completion time. Overlapping accesses to the same word serialize on the
// module's occupancy — the hot-spot model. A fault-plan degradation
// window covering the word multiplies both costs.
func (m *Machine) remoteAccess(a Addr, w *word) int64 {
	occ, rem := m.cfg.Occupancy, m.cfg.RemoteCost
	if f := m.moduleDegrade(a); f > 1 {
		occ *= f
		rem *= f
	}
	start := m.now
	if w.busyUntil > start {
		start = w.busyUntil
	}
	w.busyUntil = start + occ
	m.recordAccess(a, start-m.now)
	return start + rem
}

// moduleDegrade returns the fault-plan latency multiplier for word a at
// the current cycle (1 when no degradation window applies).
func (m *Machine) moduleDegrade(a Addr) int64 {
	if m.faults == nil || len(m.faults.degrades) == 0 {
		return 1
	}
	return m.faults.degradeFactor(a, m.now)
}

// wakeWaiters resumes every processor parked on addr whose condition no
// longer holds. Each wake pays an invalidation + re-fetch, and the
// re-fetches serialize on the word's occupancy, modeling the thundering
// herd of spinners re-reading an updated word.
func (m *Machine) wakeWaiters(addr Addr, writeDone int64) {
	w := m.word(addr)
	if len(w.waiters) == 0 {
		return
	}
	kept := w.waiters[:0]
	occ := m.cfg.Occupancy
	if f := m.moduleDegrade(addr); f > 1 {
		occ *= f
	}
	for _, wt := range w.waiters {
		if m.faults != nil && m.faults.crashed[wt.proc] {
			continue // a crashed processor never re-fetches; drop it
		}
		if w.val == wt.while {
			kept = append(kept, wt)
			continue
		}
		start := writeDone
		if w.busyUntil > start {
			start = w.busyUntil
		}
		w.busyUntil = start + occ
		// Book both the module queueing of the re-fetch and the time the
		// processor spent parked on this word: parked time is where lock
		// queues (MCS) accumulate their latency.
		m.recordAccess(addr, (start-writeDone)+(m.now-wt.since))
		w.setSharer(wt.proc)
		wake := start + m.cfg.WakeCost
		if rec := m.cfg.Spans; rec != nil {
			rec.RecordSpan(Span{
				Proc: int(wt.proc), Start: wt.since, End: wake,
				Phase: PhaseSpinWait, Op: TraceWaitWhile, Addr: addr,
			})
		}
		m.schedule(wake, wt.proc, w.val)
	}
	w.waiters = kept
}

func (w *word) cached(proc int32) bool {
	return w.sharers[proc/64]&(1<<(uint(proc)%64)) != 0
}

// anySharer reports whether any processor holds a cached copy.
func (w *word) anySharer() bool {
	for _, bits := range w.sharers {
		if bits != 0 {
			return true
		}
	}
	return false
}

// soleSharer reports whether proc is the only processor with a cached
// copy.
func (w *word) soleSharer(proc int32) bool {
	for i, bits := range w.sharers {
		expect := uint64(0)
		if int32(i) == proc/64 {
			expect = 1 << (uint(proc) % 64)
		}
		if bits != expect {
			return false
		}
	}
	return true
}

func (w *word) setSharer(proc int32) {
	w.sharers[proc/64] |= 1 << (uint(proc) % 64)
}

func (w *word) invalidateExcept(proc int32) {
	for i := range w.sharers {
		w.sharers[i] = 0
	}
	w.setSharer(proc)
}
