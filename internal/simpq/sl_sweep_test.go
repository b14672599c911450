package simpq

import (
	"testing"

	"pq/internal/sim"
)

// TestSkipListWorkloadSweep is a regression test for an unthread/thread
// race: unthread used to read the unlinked node's forward pointer without
// holding the node's lock, so a concurrent threader linking a new node
// behind it could have its node spliced out of a level — leaving
// "threaded" links unreachable and live-locking later operations. The
// original failure reproduced deterministically at 8 processors with 59
// operations each; the sweep covers the surrounding configurations with a
// tight event budget so any recurrence fails fast.
func TestSkipListWorkloadSweep(t *testing.T) {
	for _, procs := range []int{2, 4, 6, 8, 10, 12, 14, 16} {
		cfg := sim.DefaultConfig(procs)
		cfg.MaxEvents = 30_000_000
		m, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		q := NewSkipList(m, 16, procs*59+1)
		wl := WorkloadConfig{OpsPerProc: 59, LocalWork: 50, InsertFraction: 0.5}
		r, err := DriveWorkload(m, q, wl)
		if err != nil {
			t.Errorf("procs=%d: %v", procs, err)
			for _, pk := range m.ParkedProcs() {
				t.Logf("  parked proc=%d addr=%d while=%d val=%d label=%s",
					pk.Proc, pk.Addr, pk.While, m.Word(pk.Addr), m.LabelFor(pk.Addr))
			}
			continue
		}
		if r.MeanAll <= 0 {
			t.Errorf("procs=%d: no latency measured", procs)
		}
	}
}

// TestSkipListInsertWaitsForThreading: a completed insert must be visible
// to the inserter's own next DeleteMin. Processor 0 inserts priority 3
// and so claims the link's threading; processor 1 inserts priority 3 d
// cycles later, finds the link mid-threading, and then deletes. Its
// DeleteMin must not report an empty queue while both items are queued.
func TestSkipListInsertWaitsForThreading(t *testing.T) {
	for d := int64(0); d <= 40; d++ {
		m, err := sim.New(sim.DefaultConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		q := NewSkipList(m, 8, 4)
		empty := false
		if _, err := m.Run(func(p *sim.Proc) {
			if p.ID() == 0 {
				q.Insert(p, 3, encVal(3, 0, 0))
				return
			}
			p.LocalWork(d)
			q.Insert(p, 3, encVal(3, 1, 0))
			_, ok := q.DeleteMin(p)
			empty = !ok
		}); err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if empty {
			t.Errorf("d=%d: DeleteMin read EMPTY after two completed inserts", d)
		}
	}
}
