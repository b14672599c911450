package core

import "pq/internal/funnel"

// Bin is what the bin-array and counter-tree queues need of a bin, on
// either twin: C is the per-operation context, struct{} natively and
// *sim.Proc on the simulator. Natively two kinds serve, each in the
// paper's default LIFO discipline or the FIFO alternative it suggests for
// applications where stack-order unfairness matters (Section 3.2): the
// locked bag (*funnel.Bag) and the combining-funnel stack built on it
// (*funnel.Stack, which LinearFunnels and FunnelTree use).
type Bin[C, V any] interface {
	Empty(c C) bool
	Push(c C, e V)
	PushN(c C, es []V)
	Pop(c C) (V, bool)
	PopN(c C, k int) []V
}

// newBins builds n native bins in the configured discipline: locked bags
// when funnels is nil, combining-funnel stacks tuned by *funnels
// otherwise.
func newBins[V any](n int, fifo bool, funnels *funnel.Params) []Bin[struct{}, V] {
	bins := make([]Bin[struct{}, V], n)
	for i := range bins {
		switch {
		case funnels != nil && fifo:
			bins[i] = stackBin[V]{funnel.NewFIFOStack[V](*funnels)}
		case funnels != nil:
			bins[i] = stackBin[V]{funnel.NewStack[V](*funnels)}
		default:
			bins[i] = bagBin[V]{funnel.NewBag[V](fifo)}
		}
	}
	return bins
}

// stackBin is a combining-funnel stack in a native queue's bin seam.
type stackBin[V any] struct{ s *funnel.Stack[V] }

func (b stackBin[V]) Empty(struct{}) bool        { return b.s.Empty() }
func (b stackBin[V]) Push(_ struct{}, e V)       { b.s.Push(e) }
func (b stackBin[V]) PushN(_ struct{}, es []V)   { b.s.PushN(es) }
func (b stackBin[V]) Pop(struct{}) (V, bool)     { return b.s.Pop() }
func (b stackBin[V]) PopN(_ struct{}, k int) []V { return b.s.PopN(k) }

// bagBin is a locked bag in a native queue's bin seam.
type bagBin[V any] struct{ b *funnel.Bag[V] }

func (b bagBin[V]) Empty(struct{}) bool        { return b.b.Empty() }
func (b bagBin[V]) Push(_ struct{}, e V)       { b.b.Push(e) }
func (b bagBin[V]) PushN(_ struct{}, es []V)   { b.b.PushN(es) }
func (b bagBin[V]) Pop(struct{}) (V, bool)     { return b.b.Pop() }
func (b bagBin[V]) PopN(_ struct{}, k int) []V { return b.b.PopN(k) }
