package sim

import (
	"fmt"
	"strings"
)

// The progress watchdog turns would-be hangs into typed errors in
// bounded simulated time. Programs mark the completion of each
// application-level operation with Proc.OpDone; if Config.WatchdogCycles
// is set and no operation completes for that many cycles, Run aborts
// with a *WatchdogError carrying a diagnostic snapshot instead of
// silently burning events until MaxEvents.

// ProcState is one processor's entry in a watchdog diagnostic snapshot.
type ProcState struct {
	Proc int
	// Crashed is set when the processor was crash-stopped by the fault
	// plan; Done when its program returned normally.
	Crashed, Done bool
	// Ops is the number of tracked operations the processor completed;
	// LastOpAt is the cycle of the most recent one (0 if none).
	Ops      int64
	LastOpAt int64
	// Events is how many engine events the processor consumed — a large
	// count with few completed ops marks an actively spinning processor.
	Events int64
	// BlockedOp and BlockedAddr identify the memory operation the
	// processor last issued; BlockedLabel is the profiling label of that
	// address ("" if unlabeled). Parked is set when the processor is
	// passively parked in WaitWhile on that address.
	BlockedOp    TraceOp
	BlockedAddr  Addr
	BlockedLabel string
	Parked       bool
}

// WatchdogError reports that the run made no tracked progress for
// Config.WatchdogCycles simulated cycles. It satisfies errors.As.
type WatchdogError struct {
	// Now is the cycle the watchdog fired; LastProgress the cycle of the
	// last completed tracked operation; Limit the configured bound.
	Now          int64
	LastProgress int64
	Limit        int64
	// Procs holds one snapshot per processor.
	Procs []ProcState
	// Hot lists the most contended words at abort time, when profiling
	// was enabled (nil otherwise).
	Hot []HotSpot
}

func (e *WatchdogError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: watchdog: no operation completed in %d cycles (now %d, last progress %d)",
		e.Limit, e.Now, e.LastProgress)
	stuck := 0
	for _, ps := range e.Procs {
		if ps.Done || ps.Crashed {
			continue
		}
		if stuck < 4 {
			where := ps.BlockedOp.String()
			if ps.BlockedLabel != "" {
				where += " " + ps.BlockedLabel
			}
			state := "spinning"
			if ps.Parked {
				state = "parked"
			}
			fmt.Fprintf(&b, "; p%d %s on %s@%#x (%d ops)", ps.Proc, state, where, uint32(ps.BlockedAddr), ps.Ops)
		}
		stuck++
	}
	if stuck > 4 {
		fmt.Fprintf(&b, "; ... %d more stuck processors", stuck-4)
	}
	return b.String()
}

// snapshot builds the diagnostic payload for a watchdog abort.
func (m *Machine) snapshot() *WatchdogError {
	e := &WatchdogError{
		Now:          m.now,
		LastProgress: m.lastProgress,
		Limit:        m.cfg.WatchdogCycles,
		Procs:        make([]ProcState, len(m.procs)),
	}
	parked := map[int]bool{}
	for _, pk := range m.ParkedProcs() {
		parked[pk.Proc] = true
	}
	for i, p := range m.procs {
		ps := ProcState{
			Proc:        i,
			Done:        m.doneProcs[i],
			Ops:         p.ops,
			LastOpAt:    p.lastOpAt,
			Events:      m.procEvents[i],
			BlockedOp:   p.lastKind,
			BlockedAddr: p.lastAddr,
			Parked:      parked[i],
		}
		if m.faults != nil {
			ps.Crashed = m.faults.crashed[i]
		}
		if !ps.Done && !ps.Crashed {
			ps.BlockedLabel = m.LabelFor(p.lastAddr)
		}
		e.Procs[i] = ps
	}
	if m.profile != nil {
		e.Hot = m.HotSpots(8)
	}
	return e
}
