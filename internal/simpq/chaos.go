package simpq

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"pq/internal/order"
	"pq/internal/sim"
)

// This file is the chaos-harness plumbing: it drives the paper's
// workload under a sim.FaultPlan while recording a complete operation
// history (including operations left in flight by crashes or aborts), so
// the order checker can prove safety for the surviving processors and
// the harness can classify each algorithm's failure mode.

// ChaosVal encodes (priority, processor, sequence) into a queue value so
// a recorded history can recover the priority of any returned item.
func ChaosVal(pri, proc, seq int) uint64 {
	return uint64(pri)<<40 | uint64(proc)<<24 | uint64(seq) | 1<<55
}

// ChaosPri recovers the priority encoded by ChaosVal.
func ChaosPri(v uint64) int { return int(v>>40) & 0x7fff }

// BlockedProc describes where one processor was stuck when a chaos run
// ended without completing.
type BlockedProc struct {
	Proc int
	// Addr is the word the processor was parked on; Label its profiling
	// label ("" if unlabeled).
	Addr  sim.Addr
	Label string
}

// ChaosResult is the outcome of one chaos run. RunErr distinguishes the
// terminal states: nil (every surviving processor finished its ops),
// sim.ErrDeadlock (all survivors parked forever), a *sim.WatchdogError
// (survivors active but completing nothing), or sim.ErrEventLimit.
type ChaosResult struct {
	// Latency aggregates completed operations (meaningful mainly for
	// runs that finish).
	Latency Result
	// History holds every completed operation with exact cycle
	// timestamps, in per-processor program order.
	History []order.Op
	// Pending holds the operations in flight when the run ended —
	// possibly linearized; feed them to order.CheckTruncated.
	Pending []order.PendingOp
	// RunErr is the simulator's terminal state (see type comment).
	RunErr error
	// Completed counts processors that finished all their operations;
	// Crashed lists processors crash-stopped by the fault plan.
	Completed int
	Crashed   []int
	// Blocked lists surviving processors left parked in WaitWhile, with
	// the label of the word they were stuck on — the raw material for
	// failure-mode classification.
	Blocked []BlockedProc
	// Digest is an FNV-1a hash of the full history and pending set;
	// equal configurations must reproduce it bit-for-bit.
	Digest uint64
}

// ChaosWorkload drives the standard mixed workload for alg under the
// fault plan (and watchdog) carried by simCfg, recording the operation
// history. Unlike DriveWorkload it uses no start barrier — a processor
// crashing before a barrier would hang every other processor for
// reasons that have nothing to do with the algorithm under test — so
// prefill inserts simply race with the measured mix and are recorded
// like it. The history records single operations, so Batch > 1 is
// refused.
func ChaosWorkload(alg Algorithm, npri int, cfg WorkloadConfig, simCfg sim.Config) (ChaosResult, error) {
	if cfg.Batch > 1 {
		return ChaosResult{}, fmt.Errorf("simpq: ChaosWorkload records single operations; Batch must be 0 or 1, got %d", cfg.Batch)
	}
	m, q, err := buildRun(alg, npri, cfg, simCfg)
	if err != nil {
		return ChaosResult{}, err
	}
	procs := m.Procs()
	rec := &recorder{
		noBarrier:     true,
		recordPrefill: true,
		history:       make([][]order.Op, procs),
		pending:       make([]order.PendingOp, procs),
	}
	tallies, st, runErr := runMix(m, q, cfg, rec)

	r := ChaosResult{
		Latency: summarize(tallies, st, q, cfg.KeepLatencies),
		RunErr:  runErr,
		Crashed: m.CrashedProcs(),
	}
	crashed := make(map[int]bool, len(r.Crashed))
	for _, c := range r.Crashed {
		crashed[c] = true
	}
	for id := range procs {
		r.History = append(r.History, rec.history[id]...)
		if tallies[id].done {
			r.Completed++
		} else if rec.pending[id].Kind != 0 {
			r.Pending = append(r.Pending, rec.pending[id])
		}
	}
	for _, pk := range m.ParkedProcs() {
		if crashed[pk.Proc] {
			continue
		}
		r.Blocked = append(r.Blocked, BlockedProc{
			Proc: pk.Proc, Addr: pk.Addr, Label: m.LabelFor(pk.Addr),
		})
	}
	r.Digest = chaosDigest(r.History, r.Pending)
	return r, nil
}

// chaosDigest hashes a history (and pending set) into one word; bitwise
// reproducibility of a chaos run is asserted by comparing digests.
func chaosDigest(history []order.Op, pending []order.PendingOp) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, op := range history {
		w(uint64(op.Kind))
		w(uint64(int64(op.Pri)))
		w(op.Val)
		if op.OK {
			w(1)
		} else {
			w(0)
		}
		w(uint64(op.Start))
		w(uint64(op.End))
	}
	w(0xfeed_face_dead_beef)
	for _, po := range pending {
		w(uint64(po.Kind))
		w(uint64(int64(po.Pri)))
		w(po.Val)
		w(uint64(po.Start))
	}
	return h.Sum64()
}
