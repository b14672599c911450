package main

import "encoding/binary"

// rng is splitmix64: tiny, seedable and the same on every Go version, so
// one seed always yields byte-identical op streams.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	return mix64(uint64(*r))
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// opStream is one caller's pre-generated operations: bit 7 set means
// insert, the low bits are the priority. Callers cycle through it.
type opStream []byte

const opInsert = 0x80

func (s opStream) at(i int) (insert bool, pri int) {
	op := s[i%len(s)]
	return op&opInsert != 0, int(op &^ opInsert)
}

// genStream builds n ops for one caller: exactly n/2 inserts and n/2
// delete-mins in shuffled order (so cycling the stream never drifts the
// queue's size), priorities uniform over pris.
func genStream(seed uint64, caller, n, pris int) opStream {
	r := rng(mix64(seed) ^ mix64(uint64(caller)+1))
	s := make(opStream, n)
	for i := range s {
		if i < n/2 {
			s[i] = opInsert
		}
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
	for i := range s {
		s[i] |= byte(r.intn(pris))
	}
	return s
}

// Item ids are unique per (caller, seq) and carry the priority, so a
// delivered item can be checked against what was inserted without a table.
const (
	idPriBits     = 6
	idCallerBits  = 8
	prefillCaller = 1<<idCallerBits - 1
	probeCaller   = 1<<idCallerBits - 2
)

func makeID(caller int, seq uint64, pri int) uint64 {
	return seq<<(idPriBits+idCallerBits) | uint64(caller)<<idPriBits | uint64(pri)
}

func idPri(id uint64) int { return int(id & (1<<idPriBits - 1)) }

// valueLen is the 16-byte wire value: the id and its complement.
const valueLen = 16

func putValue(buf []byte, id uint64) []byte {
	binary.BigEndian.PutUint64(buf[0:8], id)
	binary.BigEndian.PutUint64(buf[8:16], ^id)
	return buf[:valueLen]
}

func parseValue(v []byte) (id uint64, ok bool) {
	if len(v) != valueLen {
		return 0, false
	}
	id = binary.BigEndian.Uint64(v[0:8])
	return id, binary.BigEndian.Uint64(v[8:16]) == ^id
}

// multiset is an order-independent digest of a bag of ids: two bags are
// equal (up to a 2^-64 collision) iff their digests are. It lets the
// exactly-once audit cover tens of millions of ops in constant memory.
type multiset struct {
	n, sum, xor uint64
}

func (m *multiset) add(id uint64) {
	h := mix64(id + 0x632be59bd9b4e019)
	m.n++
	m.sum += h
	m.xor ^= h
}

func (m *multiset) merge(o multiset) {
	m.n += o.n
	m.sum += o.sum
	m.xor ^= o.xor
}
