package simpq

import (
	"testing"

	"pq/internal/sim"
)

func TestBinSequential(t *testing.T) {
	var b *Bin
	runOn(t, 1,
		func(m *sim.Machine) { b = NewBin(m, 8) },
		func(p *sim.Proc) {
			if !b.Empty(p) {
				t.Error("new bin not empty")
			}
			if _, ok := b.Pop(p); ok {
				t.Error("Pop on empty bin succeeded")
			}
			for i := uint64(1); i <= 3; i++ {
				b.Push(p, i*10)
			}
			if b.dropped != 0 {
				t.Errorf("bin dropped %d pushes under capacity", b.dropped)
			}
			if b.Empty(p) {
				t.Error("bin with 3 items reports empty")
			}
			seen := map[uint64]bool{}
			for i := 0; i < 3; i++ {
				v, ok := b.Pop(p)
				if !ok {
					t.Fatalf("Pop %d failed", i)
				}
				seen[v] = true
			}
			if !seen[10] || !seen[20] || !seen[30] {
				t.Errorf("deleted set = %v", seen)
			}
			if !b.Empty(p) {
				t.Error("drained bin not empty")
			}
		})
}

func TestBinCapacity(t *testing.T) {
	var b *Bin
	runOn(t, 1,
		func(m *sim.Machine) { b = NewBin(m, 2) },
		func(p *sim.Proc) {
			b.Push(p, 1)
			b.Push(p, 2)
			if b.dropped != 0 {
				t.Fatal("pushes under capacity dropped")
			}
			b.Push(p, 3)
			b.PushN(p, []uint64{4, 5})
			if b.dropped != 3 {
				t.Errorf("pushes beyond capacity dropped %d, want 3", b.dropped)
			}
			if got := b.PopN(p, nil, 3); len(got) != 2 || got[0] != 2 || got[1] != 1 {
				t.Errorf("PopN after overflow = %v, want [2 1]", got)
			}
		})
}

func TestBinConcurrentMultiset(t *testing.T) {
	const procs = 16
	const perProc = 20
	var b *Bin
	popped := make([][]uint64, procs)
	runOn(t, procs,
		func(m *sim.Machine) { b = NewBin(m, procs*perProc) },
		func(p *sim.Proc) {
			id := p.ID()
			for i := 0; i < perProc; i++ {
				b.Push(p, uint64(id*perProc+i)+1)
				if v, ok := b.Pop(p); ok {
					popped[id] = append(popped[id], v)
				}
			}
		})
	// Every popped value must be one that was inserted, and popped once.
	seen := map[uint64]int{}
	for _, vs := range popped {
		for _, v := range vs {
			seen[v]++
		}
	}
	total := 0
	for v, n := range seen {
		if v == 0 || v > procs*perProc {
			t.Fatalf("popped alien value %d", v)
		}
		if n > 1 {
			t.Fatalf("value %d popped %d times", v, n)
		}
		total += n
	}
	if total > procs*perProc {
		t.Fatalf("popped %d values, more than inserted", total)
	}
}

func TestBinConcurrentDrainExact(t *testing.T) {
	const procs = 8
	const perProc = 25
	var (
		b   *Bin
		bar *barrier
	)
	popped := make([][]uint64, procs)
	var drained []uint64
	runOn(t, procs,
		func(m *sim.Machine) {
			b = NewBin(m, procs*perProc)
			bar = newBarrier(m)
		},
		func(p *sim.Proc) {
			id := p.ID()
			for i := 0; i < perProc; i++ {
				b.Push(p, uint64(id*perProc+i)+1)
				if p.Rand(2) == 0 {
					if v, ok := b.Pop(p); ok {
						popped[id] = append(popped[id], v)
					}
				}
			}
			bar.wait(p, 1)
			if id == 0 {
				for {
					v, ok := b.Pop(p)
					if !ok {
						break
					}
					drained = append(drained, v)
				}
			}
		})
	seen := map[uint64]int{}
	for _, vs := range popped {
		for _, v := range vs {
			seen[v]++
		}
	}
	for _, v := range drained {
		seen[v]++
	}
	if len(seen) != procs*perProc {
		t.Fatalf("got %d distinct values, want %d", len(seen), procs*perProc)
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("value %d seen %d times", v, n)
		}
	}
}

func TestCounterFaIConcurrent(t *testing.T) {
	const procs = 16
	const perProc = 25
	var (
		c *Counter
		m *sim.Machine
	)
	returns := make([]map[uint64]bool, procs)
	runOn(t, procs,
		func(mm *sim.Machine) {
			m = mm
			c = NewCounter(mm)
		},
		func(p *sim.Proc) {
			returns[p.ID()] = make(map[uint64]bool, perProc)
			for i := 0; i < perProc; i++ {
				returns[p.ID()][c.FaI(p)] = true
			}
		})
	if got := m.Word(c.val); got != procs*perProc {
		t.Fatalf("final counter = %d, want %d", got, procs*perProc)
	}
	// Returns must be a permutation of 0..procs*perProc-1.
	all := map[uint64]bool{}
	for _, rs := range returns {
		for v := range rs {
			if all[v] {
				t.Fatalf("duplicate FaI return %d", v)
			}
			all[v] = true
		}
	}
	if len(all) != procs*perProc {
		t.Fatalf("distinct returns = %d, want %d", len(all), procs*perProc)
	}
}

func TestCounterBFaDRespectsBound(t *testing.T) {
	const procs = 8
	var (
		c *Counter
		m *sim.Machine
	)
	runOn(t, procs,
		func(mm *sim.Machine) {
			m = mm
			c = NewCounter(mm)
			mm.SetWord(c.val, 3) // fewer items than decrementers
		},
		func(p *sim.Proc) {
			c.BFaD(p, 0)
		})
	if got := m.Word(c.val); got != 0 {
		t.Fatalf("final counter = %d, want 0 (3 successes among 8 attempts)", got)
	}
}

func TestCounterBFaDReturnsSignalSuccess(t *testing.T) {
	const procs = 10
	var c *Counter
	rets := make([]uint64, procs)
	runOn(t, procs,
		func(m *sim.Machine) {
			c = NewCounter(m)
			m.SetWord(c.val, 4)
		},
		func(p *sim.Proc) {
			rets[p.ID()] = c.BFaD(p, 0)
		})
	succ := 0
	for _, r := range rets {
		if r > 0 {
			succ++
		}
	}
	if succ != 4 {
		t.Fatalf("%d successful decrements, want exactly 4", succ)
	}
}
