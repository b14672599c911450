package funnel

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// forEachDiscipline runs f as a subtest on an empty LIFO and an empty
// FIFO bag.
func forEachDiscipline(t *testing.T, f func(t *testing.T, b *Bag[int], fifo bool)) {
	for _, fifo := range []bool{false, true} {
		name := "lifo"
		if fifo {
			name = "fifo"
		}
		t.Run(name, func(t *testing.T) { f(t, NewBag[int](fifo), fifo) })
	}
}

// bagSlack is how far past twice its most live items a bag's slice may
// grow: the size-class rounding of the allocator.
const bagSlack = 128

// TestBagSequentialModel plays random Push/PushN/Pop/PopN sequences on a
// bag and on a slice model of its discipline: every pop must return the
// model's value, PopN(k) what k Pops would, and Len/Empty must agree
// with the model after every step. The items slice must stay within
// twice the most items live so far, plus bagSlack: a FIFO bag may not
// keep the slots its pops have freed.
func TestBagSequentialModel(t *testing.T) {
	forEachDiscipline(t, func(t *testing.T, b *Bag[int], fifo bool) {
		var model []int
		maxLive := 0
		popModel := func() (int, bool) {
			if len(model) == 0 {
				return 0, false
			}
			var v int
			if fifo {
				v, model = model[0], model[1:]
			} else {
				v, model = model[len(model)-1], model[:len(model)-1]
			}
			return v, true
		}
		rng := rand.New(rand.NewSource(1))
		next := 0
		for step := 0; step < 5000; step++ {
			switch op := rng.Intn(4); op {
			case 0:
				b.Push(next)
				model = append(model, next)
				next++
			case 1:
				vs := make([]int, rng.Intn(5))
				for i := range vs {
					vs[i] = next
					next++
				}
				b.PushN(vs)
				model = append(model, vs...)
			case 2:
				got, gok := b.Pop()
				want, wok := popModel()
				if got != want || gok != wok {
					t.Fatalf("step %d: Pop = (%d,%v), want (%d,%v)", step, got, gok, want, wok)
				}
			case 3:
				k := rng.Intn(6) - 1 // k <= 0 takes nothing
				got := b.PopN(nil, k)
				var want []int
				for range k {
					v, ok := popModel()
					if !ok {
						break
					}
					want = append(want, v)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("step %d: PopN(%d) = %v, want %v", step, k, got, want)
				}
			}
			if b.Len() != len(model) || b.Empty() != (len(model) == 0) {
				t.Fatalf("step %d: Len %d Empty %v, model holds %d", step, b.Len(), b.Empty(), len(model))
			}
			maxLive = max(maxLive, len(model))
			if c := cap(b.items); c > 2*maxLive+bagSlack {
				t.Fatalf("step %d: items capacity %d with at most %d live", step, c, maxLive)
			}
		}
	})
}

// TestFIFOBag checks a FIFO bag's insertion-order delivery and its empty
// pop.
func TestFIFOBag(t *testing.T) {
	b := NewBag[int](true)
	if !b.Empty() {
		t.Fatal("new fifo bag not empty")
	}
	for i := 1; i <= 5; i++ {
		b.Push(i)
	}
	for i := 1; i <= 5; i++ {
		v, ok := b.Pop()
		if !ok || v != i {
			t.Fatalf("Pop = (%d,%v), want (%d,true)", v, ok, i)
		}
	}
	if _, ok := b.Pop(); ok {
		t.Fatal("Pop on empty fifo bag succeeded")
	}
}

// TestBagConcurrentMultiset runs pushers, poppers and batch callers on
// one bag at once: every pushed value must come out exactly once, in
// the concurrent pops or the final drain.
func TestBagConcurrentMultiset(t *testing.T) {
	forEachDiscipline(t, func(t *testing.T, b *Bag[int], _ bool) {
		const goroutines, perG = 8, 400
		popped := make([][]int, goroutines)
		var wg sync.WaitGroup
		for g := range goroutines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					v := g*perG + i
					switch (g + i) % 4 {
					case 0:
						b.Push(v)
						if got, ok := b.Pop(); ok {
							popped[g] = append(popped[g], got)
						}
					case 1:
						b.PushN([]int{v})
					case 2:
						b.Push(v)
					case 3:
						b.Push(v)
						popped[g] = b.PopN(popped[g], 3)
					}
				}
			}()
		}
		wg.Wait()
		seen := make(map[int]int, goroutines*perG)
		for _, vs := range popped {
			for _, v := range vs {
				seen[v]++
			}
		}
		for v, ok := b.Pop(); ok; v, ok = b.Pop() {
			seen[v]++
		}
		if len(seen) != goroutines*perG {
			t.Fatalf("%d distinct values came out, want %d", len(seen), goroutines*perG)
		}
		for v, n := range seen {
			if v < 0 || v >= goroutines*perG || n != 1 {
				t.Fatalf("value %d came out %d times", v, n)
			}
		}
		if !b.Empty() || b.Len() != 0 {
			t.Fatalf("drained bag reports Len %d", b.Len())
		}
	})
}
