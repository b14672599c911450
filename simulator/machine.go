package simulator

import (
	"fmt"
	"slices"

	"pq/internal/core"
	"pq/internal/sim"
	"pq/internal/simpq"
)

// Proc is the handle a simulated program uses to execute on one
// processor: reads, writes, atomics, local work, parked spinning, and a
// deterministic per-processor PRNG. See the methods of sim.Proc.
type Proc = sim.Proc

// MachineConfig sets a custom machine's size and cost model. Zero-valued
// costs select the defaults used for the paper reproduction.
type MachineConfig struct {
	// Procs is the number of processors (1..256).
	Procs int
	// LocalCost, RemoteCost, Occupancy and WakeCost are the cycle costs
	// of the memory model (cache hit, remote round-trip, module
	// serialization per access, invalidation wake-up).
	LocalCost, RemoteCost, Occupancy, WakeCost int64
	// Seed makes the whole machine deterministic (default 1).
	Seed int64
}

// Machine is a programmable simulated multiprocessor: build queues on
// it, then Run a program on every processor. It exposes the same
// instrument the paper reproduction uses, for custom experiments.
type Machine struct {
	m      *sim.Machine
	closed bool
}

// NewMachine builds a machine with procs processors and default costs.
func NewMachine(procs int) (*Machine, error) {
	return NewMachineConfig(MachineConfig{Procs: procs})
}

// NewMachineConfig builds a machine with a custom cost model.
func NewMachineConfig(cfg MachineConfig) (*Machine, error) {
	sc := sim.Config{
		Procs:      cfg.Procs,
		LocalCost:  cfg.LocalCost,
		RemoteCost: cfg.RemoteCost,
		Occupancy:  cfg.Occupancy,
		WakeCost:   cfg.WakeCost,
		Seed:       cfg.Seed,
	}
	m, err := sim.New(sc)
	if err != nil {
		return nil, fmt.Errorf("simulator: %w", err)
	}
	return &Machine{m: m}, nil
}

// SimQueue is a bounded-range priority queue living on a simulated
// machine; values must fit in 61 bits.
type SimQueue = simpq.Queue

// NewQueue builds the named queue on this machine with npri priorities
// and room for maxItems queued elements. Must be called before Run.
func (mc *Machine) NewQueue(alg Algorithm, npri, maxItems int) (SimQueue, error) {
	if mc.closed {
		return nil, fmt.Errorf("simulator: machine already ran")
	}
	if !slices.Contains(core.Algorithms, alg) {
		return nil, fmt.Errorf("simulator: unknown algorithm %q", alg)
	}
	if npri < 1 || maxItems < 1 {
		return nil, fmt.Errorf("simulator: need npri >= 1 and maxItems >= 1")
	}
	return simpq.Build(alg, mc.m, npri, maxItems), nil
}

// RunStats summarizes a custom run.
type RunStats struct {
	// SimulatedCycles is when the last processor finished; Events counts
	// engine events.
	SimulatedCycles int64
	Events          int64
}

// Run executes program on every processor until all return. A Machine
// runs once; the engine interleaves processors deterministically, so
// programs need no synchronization beyond the Proc API.
func (mc *Machine) Run(program func(p *Proc)) (RunStats, error) {
	mc.closed = true
	st, err := mc.m.Run(program)
	if err != nil {
		return RunStats{}, fmt.Errorf("simulator: %w", err)
	}
	return RunStats{SimulatedCycles: st.FinalTime, Events: st.Events}, nil
}
