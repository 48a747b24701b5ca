package sim

import (
	"math"
	"math/bits"
	"slices"
	"time"
)

// --- the delivery calendar ---
//
// Payload deliveries are queued by time bucket, not by comparison: under a
// duplicating, reordering adversary tens of thousands sit in the queue, sent
// before TS and due long after, and none is ever canceled, so what they need
// is an insert that costs the same however many are queued, and nothing else.
//
// Virtual time is cut into fine buckets of 1<<fineShift ns. The calendar
// stands at one of them: cur holds that bucket's entries sorted by (at, seq),
// and pos is the next to pop. Three aligned tiers lie ahead of it:
//
//   - fine: one list per remaining fine bucket of the coarse bucket the
//     calendar stands in (a coarse bucket is fineBuckets fine ones);
//   - coarse: one list per remaining coarse bucket of the current span of
//     coarseBuckets coarse buckets;
//   - over: a single list for everything later, with its earliest time.
//
// An insert appends to the list its time selects; a pop is pos++. When cur
// runs out the calendar advances to the next non-empty fine bucket (found in
// a bitmap) and sorts it; when the fine tier runs out the next non-empty
// coarse bucket is dealt out into the fine tier; when that runs out too, the
// calendar jumps to the span of over's earliest entry and deals over out
// again. An entry is therefore moved at most three times whatever the queue
// holds, and is compared only with the entries of its own fine bucket. The
// sort key is total (seq is unique), so the pop order is the one a single
// priority queue over (at, seq) gives, whatever the bucket widths — the
// widths move no schedule.
//
// The calendar never advances beyond the time the engine is about to move
// the clock to (advance takes that limit), so it never stands at a bucket
// later than Now()'s and every insert — which is never before Now() — falls
// at or after cur's bucket. One that falls in cur's bucket (or, defensively,
// before it) is inserted into cur in order.
//
// The lists are chains of fixed-size chunks in one slab the calendar owns,
// free-listed and handed out in index order after a reset as the slot pool
// is. A slice per bucket was as fast in the prototype of this design, but
// thousands of small slices never finish growing: it cost sim_grid 16 % more
// allocated bytes per run.
//
// The widths are constants because no workload wants other values: one fixed
// sim_grid pass (1.24–1.37 s on the 4-ary heap alone, same machine and hour)
// took, best of four to six, 0.97–1.10 s as below; 1.03, 0.98, 0.93, 0.96,
// 0.99 s with fine buckets of 1<<11, 12, 16, 17, 20 ns; 0.94 s with 1 024
// fine buckets, 0.88–1.06 s with 4 096, 1.01 s with 512 of 1<<16 ns — all
// inside the spread between two readings of one binary. A regime's delays run
// from δ/10 (a millisecond) to twice TS (seconds), so the fine tier spans a
// few δ and the coarse tier a run.
const (
	fineShift     = 14 // a fine bucket is 16.4 µs of virtual time
	fineBits      = 11 // 2 048 of them make a coarse bucket, 33.6 ms
	coarseBits    = 8  // 256 coarse buckets make a span, 8.6 s
	fineBuckets   = 1 << fineBits
	coarseBuckets = 1 << coarseBits
	coarseShift   = fineShift + fineBits
	spanShift     = coarseShift + coarseBits

	// chunkCap makes a chunk 128 bytes, two cache lines.
	chunkCap = 5
)

// calEntry is one queued delivery: its ordering key, the slot holding the
// payload it shares with the other recipients of its fan-out, and the
// recipient.
type calEntry struct {
	at   time.Duration
	seq  uint64
	slot int32
	to   int32
}

// before reports whether a is delivered before b.
func (a calEntry) before(b calEntry) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// calChunk is one link of a bucket's list. Chunk 0 is never handed out: a
// list head or next of 0 ends the chain. The header comes first so that it
// shares a cache line with the first two entries: most fine buckets never
// hold more, and a push into one then misses once, not twice.
type calChunk struct {
	n    int32
	next int32
	ents [chunkCap]calEntry
}

type calendar struct {
	cur []calEntry
	pos int
	// n counts the queued entries, cur[pos:] included.
	n int
	// bucket is the fine bucket cur stands for, at>>fineShift.
	bucket int64

	fine      [fineBuckets]int32
	fineSet   [fineBuckets / 64]uint64
	coarse    [coarseBuckets]int32
	coarseSet [coarseBuckets / 64]uint64
	over      int32
	overMin   time.Duration

	// chunks is the slab; free heads the released chunks and used is the
	// first index never handed out since the last reset.
	chunks []calChunk
	free   int32
	used   int32
}

// reset empties the calendar, keeping the slab and cur's capacity. Chunks
// hold no pointers, so none needs revisiting.
func (c *calendar) reset() {
	c.cur, c.pos, c.n, c.bucket = c.cur[:0], 0, 0, 0
	clear(c.fine[:])
	clear(c.fineSet[:])
	clear(c.coarse[:])
	clear(c.coarseSet[:])
	c.over, c.overMin = 0, math.MaxInt64
	c.free, c.used = 0, 1
}

// place puts an entry, due at or after the engine's clock, where its time
// selects relative to the bucket the calendar stands at. The caller counts
// it in n if it is new.
func (c *calendar) place(ent calEntry) {
	b := int64(ent.at) >> fineShift
	if b <= c.bucket {
		c.cur = append(c.cur, ent)
		settle(c.cur, c.pos, len(c.cur)-1)
		return
	}
	switch diff := uint64(b ^ c.bucket); {
	case diff < fineBuckets:
		i := b & (fineBuckets - 1)
		c.fineSet[i>>6] |= 1 << (i & 63)
		c.push(&c.fine[i], ent)
	case diff < fineBuckets*coarseBuckets:
		j := b >> fineBits & (coarseBuckets - 1)
		c.coarseSet[j>>6] |= 1 << (j & 63)
		c.push(&c.coarse[j], ent)
	default:
		c.overMin = min(c.overMin, ent.at)
		c.push(&c.over, ent)
	}
}

// push appends an entry to a list, linking a fresh chunk in front when the
// head chunk is full.
func (c *calendar) push(head *int32, ent calEntry) {
	ci := *head
	if ci == 0 || c.chunks[ci].n == chunkCap {
		ci = c.free
		if ci != 0 {
			c.free = c.chunks[ci].next
		} else {
			ci = c.used
			if int(ci) >= len(c.chunks) {
				// Double, from 64 chunks: only len matters, a chunk is
				// initialized when it is handed out.
				c.chunks = slices.Grow(c.chunks, max(len(c.chunks), 64))
				c.chunks = c.chunks[:cap(c.chunks)]
			}
			c.used++
		}
		c.chunks[ci].n, c.chunks[ci].next = 0, *head
		*head = ci
	}
	ch := &c.chunks[ci]
	ch.ents[ch.n] = ent
	ch.n++
}

// oldestFirst reverses the chain at head, which push built newest chunk
// first, and returns its new head. Walked from there a list yields its
// entries in the order they were pushed — ascending sequence numbers, so a
// bucket whose entries tie on the time (a policy that delays by multiples
// of δ/10 fills whole buckets with them) reaches the sort already in order.
func (c *calendar) oldestFirst(head int32) int32 {
	var prev int32
	for head != 0 {
		next := c.chunks[head].next
		c.chunks[head].next = prev
		prev, head = head, next
	}
	return prev
}

// deal empties a coarse-tier or overflow list the caller has detached,
// placing every entry anew. A chunk is released only once its entries are
// placed (place hands released chunks out again) and is addressed by index
// throughout (place may grow the slab).
func (c *calendar) deal(head int32) {
	for ci := c.oldestFirst(head); ci != 0; ci = c.release(ci) {
		for k := int32(0); k < c.chunks[ci].n; k++ {
			c.place(c.chunks[ci].ents[k])
		}
	}
}

// release returns chunk ci to the free list and reports the chunk that
// followed it in its list.
func (c *calendar) release(ci int32) int32 {
	next := c.chunks[ci].next
	c.chunks[ci].next, c.free = c.free, ci
	return next
}

// advance moves the calendar, whose cur has run out, to the next non-empty
// fine bucket and reports whether there is one that starts at or before
// limit; if not it stays where the search stopped, at or before limit's
// bucket. The caller has checked that entries are queued.
func (c *calendar) advance(limit time.Duration) bool {
	c.cur, c.pos = c.cur[:0], 0
	for len(c.cur) == 0 {
		if i := nextSet(c.fineSet[:], int(c.bucket&(fineBuckets-1))+1); i >= 0 {
			b := c.bucket&^(fineBuckets-1) | int64(i)
			if time.Duration(b<<fineShift) > limit {
				return false
			}
			c.bucket = b
			c.fineSet[i>>6] &^= 1 << (i & 63)
			for ci := c.oldestFirst(c.fine[i]); ci != 0; ci = c.release(ci) {
				c.cur = append(c.cur, c.chunks[ci].ents[:c.chunks[ci].n]...)
			}
			c.fine[i] = 0
			sortBucket(c.cur)
			return true
		}
		cb := c.bucket >> fineBits
		if j := nextSet(c.coarseSet[:], int(cb&(coarseBuckets-1))+1); j >= 0 {
			cb = cb&^(coarseBuckets-1) | int64(j)
			if time.Duration(cb<<coarseShift) > limit {
				return false
			}
			// Stand at the coarse bucket's first fine bucket: place puts
			// that one's entries in cur and the rest in the fine tier.
			c.bucket = cb << fineBits
			c.coarseSet[j>>6] &^= 1 << (j & 63)
			head := c.coarse[j]
			c.coarse[j] = 0
			c.deal(head)
			continue
		}
		span := int64(c.overMin) >> spanShift
		if time.Duration(span<<spanShift) > limit {
			return false
		}
		c.bucket = span << (fineBits + coarseBits)
		head := c.over
		c.over, c.overMin = 0, math.MaxInt64
		c.deal(head)
	}
	return true
}

// insertionSortMax is the longest bucket sortBucket sorts by insertion.
const insertionSortMax = 64

// sortBucket orders a drained bucket by (at, seq): by insertion while it is
// short — most hold one to a dozen entries — and by pdqsort beyond. Both are
// linear on a bucket that is already in order.
func sortBucket(v []calEntry) {
	if len(v) > insertionSortMax {
		slices.SortFunc(v, func(a, b calEntry) int {
			if a.before(b) {
				return -1
			}
			return 1
		})
		return
	}
	for i := 1; i < len(v); i++ {
		settle(v, 0, i)
	}
}

// settle moves v[i] down to its place among v[lo:i], which are in order.
func settle(v []calEntry, lo, i int) {
	ent := v[i]
	for ; i > lo && ent.before(v[i-1]); i-- {
		v[i] = v[i-1]
	}
	v[i] = ent
}

// nextSet returns the index of the first set bit at or after from, or -1.
func nextSet(set []uint64, from int) int {
	w := from >> 6
	if w >= len(set) {
		return -1
	}
	if x := set[w] >> (from & 63); x != 0 {
		return from + bits.TrailingZeros64(x)
	}
	for w++; w < len(set); w++ {
		if set[w] != 0 {
			return w<<6 + bits.TrailingZeros64(set[w])
		}
	}
	return -1
}
