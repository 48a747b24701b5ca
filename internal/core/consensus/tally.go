package consensus

import (
	"iter"
	"math/bits"
)

// Tally holds at most one value per process — the phase-1b and phase-2b
// messages of a ballot, a round's votes, the contacts of a session: whatever
// a protocol collects from its peers until a majority is in. It does the job
// of a map[ProcessID]T without a map's cost on the receive path: values sit
// in a slice indexed by ProcessID beside a bitset of the processes heard
// from, storage is kept across Reset so a new ballot or round allocates
// nothing, and All visits processes in ascending ID order, so whatever a
// protocol derives from a tally cannot depend on iteration order.
//
// Reset tells the tally the cluster size, and the first Set then allocates
// storage for the whole cluster at once — one allocation for clusters of up
// to 64 processes, whose bitset is a field — instead of regrowing as higher
// IDs arrive. Storage is allocated only once a value is set, since many
// tallies (a ballot owner's phase-1b set, say) never fill on most processes.
//
// The zero value is an empty tally. Storage grows to cover the highest ID
// set.
type Tally[T any] struct {
	vals []T      // indexed by ProcessID; meaningful only where seen
	lo   uint64   // bit id is set when process id < 64 has a value
	hi   []uint64 // the same for processes 64 and up, 64 to a word
	n    int      // number of processes with a value
	size int      // cluster size, from Reset: what the first Set allocates
}

// Reset empties the tally, keeping its storage, and records that it holds
// the values of an n-process cluster.
func (t *Tally[T]) Reset(n int) {
	t.lo = 0
	clear(t.hi)
	t.n = 0
	t.size = n
}

// Set records v as process id's value, replacing any earlier one.
func (t *Tally[T]) Set(id ProcessID, v T) {
	i := int(id)
	if i >= len(t.vals) {
		t.grow(max(i+1, t.size))
	}
	t.vals[i] = v
	if w, bit := t.word(i), uint64(1)<<(i&63); *w&bit == 0 {
		*w |= bit
		t.n++
	}
}

// grow extends storage to cover processes below n, doubling it when it has
// to move.
func (t *Tally[T]) grow(n int) {
	if n > cap(t.vals) {
		vals := make([]T, n, max(n, 2*cap(t.vals)))
		copy(vals, t.vals)
		t.vals = vals
	}
	t.vals = t.vals[:n]
	for len(t.hi) < (n-1)>>6 {
		t.hi = append(t.hi, 0)
	}
}

// word returns the bitset word holding process i's bit.
func (t *Tally[T]) word(i int) *uint64 {
	if i < 64 {
		return &t.lo
	}
	return &t.hi[i>>6-1]
}

// Get returns process id's value and whether it has one.
func (t *Tally[T]) Get(id ProcessID) (T, bool) {
	i := int(id)
	if i < 0 || i >= len(t.vals) || *t.word(i)&(1<<(i&63)) == 0 {
		var zero T
		return zero, false
	}
	return t.vals[i], true
}

// Len returns the number of processes with a value.
func (t *Tally[T]) Len() int { return t.n }

// All iterates over the recorded (process, value) pairs in ascending
// process order.
func (t *Tally[T]) All() iter.Seq2[ProcessID, T] {
	return func(yield func(ProcessID, T) bool) {
		word := t.lo
		for w := 0; ; w++ {
			for ; word != 0; word &= word - 1 {
				i := w<<6 | bits.TrailingZeros64(word)
				if !yield(ProcessID(i), t.vals[i]) {
					return
				}
			}
			if w == len(t.hi) {
				return
			}
			word = t.hi[w]
		}
	}
}
