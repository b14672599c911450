// Package sim implements a deterministic, discrete-event simulator of a
// cache-coherent NUMA shared-memory multiprocessor, in the spirit of the
// Proteus simulator used by Shavit and Zemach to evaluate concurrent
// priority queues on an MIT-Alewife-like machine.
//
// The simulator models the phenomena the paper's results depend on:
//
//   - a local/remote latency split with a simple invalidation-based cache
//     (a read hits locally if the word was not written since this
//     processor last fetched it),
//   - per-word occupancy queueing, so simultaneous accesses to the same
//     word serialize (hot spots),
//   - hardware synchronization primitives limited to the ones the paper
//     assumes: register-to-memory swap and compare-and-swap,
//   - parked waiting (WaitWhile), which models a processor spinning on a
//     locally cached word: it costs nothing while the word is unchanged
//     and pays an invalidation + re-fetch when a writer changes it.
//
// Execution is deterministic and single-threaded: each simulated processor
// runs its program as an iter.Pull coroutine that yields one request per
// memory access, and the engine resumes exactly one of them at a time,
// ordered by (simulated time, event sequence number), on the goroutine
// that called Run. All randomness comes from per-processor PRNGs seeded
// from Config.Seed, so a run is a pure function of the program and the
// configuration. A Machine shares nothing with other Machines; independent
// runs may proceed on separate goroutines.
package sim

import "fmt"

// Addr is the address of one word of simulated shared memory.
type Addr uint32

// MaxProcs is the largest processor count a Machine supports. The sharer
// set of each memory word is a fixed-size bitmap sized for this limit.
const MaxProcs = 256

// Config holds the cost parameters of the simulated machine. All costs are
// in simulated cycles.
type Config struct {
	// Procs is the number of processors (1..MaxProcs).
	Procs int
	// LocalCost is the latency of a read that hits in the local cache.
	LocalCost int64
	// RemoteCost is the round-trip latency of a remote access (read miss,
	// write, or atomic operation).
	RemoteCost int64
	// Occupancy is how long a word's home memory module is busy serving
	// one remote access; overlapping accesses to the same word queue up
	// behind each other for this long. This is the hot-spot model.
	Occupancy int64
	// WakeCost is the extra latency charged to a parked processor when the
	// word it spins on changes (invalidation plus re-fetch), on top of the
	// occupancy queueing of the re-fetch.
	WakeCost int64
	// Seed seeds the per-processor PRNGs.
	Seed int64
	// MemoryWords is the size of the simulated shared memory. Zero selects
	// DefaultMemoryWords.
	MemoryWords int
	// MaxEvents aborts the run if the engine processes more than this many
	// events (a safety valve against livelock in simulated programs).
	// Zero selects DefaultMaxEvents.
	MaxEvents int64
	// Profile enables per-word contention accounting, read back after the
	// run with Machine.HotSpots.
	Profile bool
	// Faults, when non-nil, injects the plan's deterministic processor
	// stalls, crash-stops and memory-degradation windows into the run.
	// All fault randomness derives from Seed, so faulty runs reproduce
	// bit-for-bit. See FaultPlan.
	Faults *FaultPlan
	// WatchdogCycles aborts the run with a *WatchdogError if no tracked
	// operation (Proc.OpDone) completes for this many simulated cycles —
	// turning livelocks into typed, diagnosable errors instead of
	// burning events to MaxEvents. Zero disables the watchdog; programs
	// that never call OpDone must leave it disabled.
	WatchdogCycles int64
	// Spans, when non-nil, receives phase-attributed time spans for every
	// serviced operation (and application-attributed spans via
	// Proc.AppSpan/OpSpan); it is the engine's one per-access hook. Each
	// operation yields one span when the engine services it, except a
	// WaitWhile that parks: it yields its spin-wait span when woken, and
	// none if still parked when the run ends. Recording happens while the
	// recorder's caller holds the execution baton, so implementations
	// need no locking, and it costs no simulated cycles: a traced run's
	// FinalTime is identical to an untraced one. See internal/trace for
	// the standard collector.
	Spans SpanRecorder
}

// Phase classifies where a span of simulated time went.
type Phase uint8

// Span phases. The engine attributes LocalWork, LocalAccess, MemStall and
// SpinWait; Combining and LockWait are attributed by the simulated
// program through Proc.AppSpan.
const (
	PhaseLocalWork   Phase = iota + 1 // private computation (Proc.LocalWork)
	PhaseLocalAccess                  // cache-hit memory access
	PhaseMemStall                     // remote access, incl. occupancy queueing
	PhaseSpinWait                     // parked in WaitWhile until woken
	PhaseCombining                    // app: inside a combining-funnel pass
	PhaseLockWait                     // app: waiting to acquire a lock
)

func (ph Phase) String() string {
	switch ph {
	case PhaseLocalWork:
		return "local-work"
	case PhaseLocalAccess:
		return "local-access"
	case PhaseMemStall:
		return "mem-stall"
	case PhaseSpinWait:
		return "spin-wait"
	case PhaseCombining:
		return "combining"
	case PhaseLockWait:
		return "lock-wait"
	default:
		return "unknown"
	}
}

// Phases lists every phase in declaration order, for deterministic
// iteration by reporters.
var Phases = []Phase{
	PhaseLocalWork, PhaseLocalAccess, PhaseMemStall,
	PhaseSpinWait, PhaseCombining, PhaseLockWait,
}

// Span is one attributed interval of a processor's simulated time.
type Span struct {
	// Proc is the processor the time belongs to.
	Proc int
	// Start and End bound the interval in simulated cycles.
	Start, End int64
	// Phase says where the time went.
	Phase Phase
	// Op and Addr identify the memory operation for engine-attributed
	// spans (Op is zero for application-attributed ones).
	Op   TraceOp
	Addr Addr
}

// SpanRecorder receives attributed spans and operation-level spans from a
// run. Both methods are called in deterministic order and must not invoke
// the simulator.
type SpanRecorder interface {
	// RecordSpan receives one phase-attributed span.
	RecordSpan(Span)
	// RecordOpSpan receives one application-level operation span (e.g.
	// one insert or delete-min), named by kind.
	RecordOpSpan(proc int, kind string, start, end int64)
}

// TraceOp identifies the kind of a memory operation: what a program
// asks of the engine, and what the operation's spans record.
type TraceOp uint8

// Operation kinds.
const (
	TraceRead TraceOp = iota + 1
	TraceWrite
	TraceSwap
	TraceCAS
	TraceFetchAdd
	TraceWaitWhile
	TraceLocalWork
)

func (op TraceOp) String() string {
	switch op {
	case TraceRead:
		return "read"
	case TraceWrite:
		return "write"
	case TraceSwap:
		return "swap"
	case TraceCAS:
		return "cas"
	case TraceFetchAdd:
		return "fetchadd"
	case TraceWaitWhile:
		return "waitwhile"
	case TraceLocalWork:
		return "localwork"
	default:
		return "unknown"
	}
}

// Default cost parameters. They approximate a late-1990s ccNUMA machine:
// single-digit-cycle cache hits, tens of cycles for a remote round trip,
// and a memory module that can accept a new request every Occupancy cycles.
const (
	DefaultLocalCost   = 2
	DefaultRemoteCost  = 40
	DefaultOccupancy   = 10
	DefaultWakeCost    = 20
	DefaultMemoryWords = 1 << 26
	DefaultMaxEvents   = 2_000_000_000
)

// DefaultConfig returns a Config for p processors with the default cost
// parameters and seed 1.
func DefaultConfig(p int) Config {
	return Config{
		Procs:      p,
		LocalCost:  DefaultLocalCost,
		RemoteCost: DefaultRemoteCost,
		Occupancy:  DefaultOccupancy,
		WakeCost:   DefaultWakeCost,
		Seed:       1,
	}
}

// normalize validates the configuration and fills defaults. Zero means
// "use the default" for LocalCost, RemoteCost, MemoryWords and
// MaxEvents; a zero Occupancy or WakeCost is a valid explicit choice
// (a machine with no hot-spot queueing / free wake-ups) and is kept.
// Negative values are configuration errors everywhere — a sweep that
// computes a negative cost should fail loudly, not silently run on
// defaults.
func (c *Config) normalize() error {
	if c.Procs < 1 || c.Procs > MaxProcs {
		return fmt.Errorf("sim: Procs must be in [1,%d], got %d", MaxProcs, c.Procs)
	}
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"LocalCost", c.LocalCost},
		{"RemoteCost", c.RemoteCost},
		{"Occupancy", c.Occupancy},
		{"WakeCost", c.WakeCost},
		{"MemoryWords", int64(c.MemoryWords)},
		{"MaxEvents", c.MaxEvents},
		{"WatchdogCycles", c.WatchdogCycles},
	} {
		if f.v < 0 {
			return fmt.Errorf("sim: %s must be >= 0, got %d", f.name, f.v)
		}
	}
	if c.LocalCost == 0 {
		c.LocalCost = DefaultLocalCost
	}
	if c.RemoteCost == 0 {
		c.RemoteCost = DefaultRemoteCost
	}
	if c.MemoryWords == 0 {
		c.MemoryWords = DefaultMemoryWords
	}
	if c.MaxEvents == 0 {
		c.MaxEvents = DefaultMaxEvents
	}
	if c.Faults != nil {
		if err := c.Faults.validate(c.Procs); err != nil {
			return err
		}
	}
	return nil
}

// Stats summarizes a completed run.
type Stats struct {
	// FinalTime is the simulated cycle at which the last processor
	// finished.
	FinalTime int64
	// Events is the number of engine events processed.
	Events int64
	// MemOps is the total number of memory operations serviced (reads,
	// writes, atomics, and WaitWhile probes; LocalWork excluded).
	MemOps int64
	// StallCycles is the total cycles processors spent blocked in remote
	// memory accesses, including occupancy queueing at hot words.
	StallCycles int64
	// ProcOps counts tracked application-level operations (Proc.OpDone)
	// per processor; all zeros for programs that never call OpDone.
	ProcOps []int64
}
