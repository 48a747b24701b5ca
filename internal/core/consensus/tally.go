package consensus

import (
	"iter"
	"math/bits"
	"slices"
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
// The zero value is an empty tally. Storage grows to the highest ID set.
type Tally[T any] struct {
	vals []T      // indexed by ProcessID; meaningful only where seen
	seen []uint64 // bit id is set when process id has a value
	n    int      // number of processes with a value
}

// Reset empties the tally, keeping its storage.
func (t *Tally[T]) Reset() {
	clear(t.seen)
	t.n = 0
}

// Set records v as process id's value, replacing any earlier one.
func (t *Tally[T]) Set(id ProcessID, v T) {
	i := int(id)
	if i >= len(t.vals) {
		t.vals = slices.Grow(t.vals, i+1-len(t.vals))[:i+1]
		for i>>6 >= len(t.seen) {
			t.seen = append(t.seen, 0)
		}
	}
	t.vals[i] = v
	if bit := uint64(1) << (i & 63); t.seen[i>>6]&bit == 0 {
		t.seen[i>>6] |= bit
		t.n++
	}
}

// Get returns process id's value and whether it has one.
func (t *Tally[T]) Get(id ProcessID) (T, bool) {
	i := int(id)
	if i < 0 || i >= len(t.vals) || t.seen[i>>6]&(1<<(i&63)) == 0 {
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
		for w, word := range t.seen {
			for ; word != 0; word &= word - 1 {
				i := w<<6 | bits.TrailingZeros64(word)
				if !yield(ProcessID(i), t.vals[i]) {
					return
				}
			}
		}
	}
}
