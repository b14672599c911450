package simpq

import (
	"testing"

	"pq/internal/sim"
)

// countOps runs program on one processor while counting serviced memory
// operations by kind (LocalWork excluded).
func countOps(t *testing.T, setup func(m *sim.Machine), program func(p *sim.Proc, counting func(bool))) map[sim.TraceOp]int {
	t.Helper()
	counts := map[sim.TraceOp]int{}
	counting := false
	cfg := sim.DefaultConfig(1)
	cfg.Trace = func(e sim.TraceEvent) {
		if counting && e.Op != sim.TraceLocalWork {
			counts[e.Op]++
		}
	}
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	setup(m)
	if _, err := m.Run(func(p *sim.Proc) {
		program(p, func(on bool) { counting = on })
	}); err != nil {
		t.Fatal(err)
	}
	return counts
}

// TestEmptinessIsOneRead pins the property the paper stresses for
// LinearFunnels: "testing for emptiness is much faster (requires only
// one read) than actually going through the funnel".
func TestEmptinessIsOneRead(t *testing.T) {
	var s *FunnelStack
	counts := countOps(t,
		func(m *sim.Machine) { s = NewFunnelStack(m, testParams(), 8) },
		func(p *sim.Proc, counting func(bool)) {
			s.Push(p, 7) // outside the counted window
			counting(true)
			s.Empty(p)
			counting(false)
		})
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != 1 || counts[sim.TraceRead] != 1 {
		t.Fatalf("Empty() cost %v, want exactly one read", counts)
	}
}

// TestBinEmptinessIsOneRead pins the same property for the lock-based
// bins of Figure 1 (bin-empty reads b.size without the lock).
func TestBinEmptinessIsOneRead(t *testing.T) {
	var b *Bin
	counts := countOps(t,
		func(m *sim.Machine) { b = NewBin(m, 8) },
		func(p *sim.Proc, counting func(bool)) {
			b.Push(p, 1)
			counting(true)
			b.Empty(p)
			counting(false)
		})
	if counts[sim.TraceRead] != 1 || len(counts) != 1 {
		t.Fatalf("bin Empty() cost %v, want exactly one read", counts)
	}
}

// TestSimpleLinearDeleteScanCost pins the delete-min scan structure: a
// delete on a queue whose only item sits in the last bin must read every
// bin's size once (N reads) before paying for one bin lock.
func TestSimpleLinearDeleteScanCost(t *testing.T) {
	const npri = 8
	var q *SimpleLinear
	counts := countOps(t,
		func(m *sim.Machine) { q = NewSimpleLinear(m, npri, 8) },
		func(p *sim.Proc, counting func(bool)) {
			q.Insert(p, npri-1, 42)
			counting(true)
			if _, ok := q.DeleteMin(p); !ok {
				t.Error("delete failed")
			}
			counting(false)
		})
	// npri size reads for the scan, plus the locked bin-delete (reads of
	// size and the element, lock words, writes).
	if counts[sim.TraceRead] < npri {
		t.Fatalf("delete scanned %d reads, want >= %d", counts[sim.TraceRead], npri)
	}
	if counts[sim.TraceSwap] != 1 {
		t.Fatalf("delete took %d lock swaps, want exactly 1 (only the last bin)", counts[sim.TraceSwap])
	}
}

// TestSimpleTreeInsertCounterCost pins Figure 3's structure: inserting at
// the leftmost leaf increments a counter at every level (log2 N
// fetch-and-increments, each one lock acquire).
func TestSimpleTreeInsertCounterCost(t *testing.T) {
	const npri = 8 // 3 levels
	var q *SimpleTree
	counts := countOps(t,
		func(m *sim.Machine) { q = NewSimpleTree(m, npri, 8) },
		func(p *sim.Proc, counting func(bool)) {
			counting(true)
			q.Insert(p, 0, 42) // leftmost: increments all 3 ancestors
			counting(false)
		})
	// Each counter op is one MCS acquire = one swap; plus the bin's MCS.
	if counts[sim.TraceSwap] != 4 {
		t.Fatalf("leftmost insert took %d lock swaps, want 4 (bin + 3 counters)", counts[sim.TraceSwap])
	}
}

// TestRightmostInsertTouchesNoCounters pins the complementary property:
// the rightmost leaf is a right child at every level, so its inserts
// increment nothing.
func TestRightmostInsertTouchesNoCounters(t *testing.T) {
	const npri = 8
	var q *SimpleTree
	counts := countOps(t,
		func(m *sim.Machine) { q = NewSimpleTree(m, npri, 8) },
		func(p *sim.Proc, counting func(bool)) {
			counting(true)
			q.Insert(p, npri-1, 42)
			counting(false)
		})
	if counts[sim.TraceSwap] != 1 {
		t.Fatalf("rightmost insert took %d lock swaps, want 1 (bin only)", counts[sim.TraceSwap])
	}
}
