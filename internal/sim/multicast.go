package sim

import (
	"fmt"
	"time"
)

// Batched multicast: one heap slot fanning a shared payload out to many
// recipients.
//
// The unicast delivery path costs one alloc-free but heap-resident event per
// link, so an all-to-all broadcast round at population scale (N in the
// thousands) pushes N² events through the priority queue and the queue
// dominates everything. A multicast keeps the per-link semantics — each
// recipient has its own delivery time, drawn by the caller with the same
// randomness a unicast loop would use — but stores them as one slot plus a
// compact (at, seq, to) vector sorted at commit time. The heap orders the
// slot by its earliest undelivered entry; each Step delivers exactly one
// entry and re-keys the slot in place (a single sift-down instead of a
// pop+push). Executed-event counts, clock advancement, and RunUntil
// predicate granularity are identical to the unicast schedule, and because
// every Add consumes the engine sequence number the equivalent
// ScheduleDelivery would have, the expanded delivery order is byte-identical
// too.

// multiEntry is one recipient of a multicast: its delivery time, the engine
// sequence number the delivery consumed at schedule time, and the recipient
// address.
type multiEntry struct {
	at  time.Duration
	seq uint64
	to  int32
}

// Multicast accumulates the recipients of one batched fan-out. Obtain with
// BeginMulticast, Add each surviving recipient in the caller's deterministic
// recipient order, then Commit exactly once. The zero value is not usable.
type Multicast struct {
	e  *Engine
	si int32
	mi int32
}

// BeginMulticast starts a batched payload fan-out from one sender: a single
// queue entry that will invoke the delivery sink once per added recipient,
// in (time, sequence) order interleaved correctly with every other event.
// sizeHint presizes the recipient vector (pass the cluster size; cold
// vectors take one allocation, warm ones none). Requires SetDeliverySink,
// like ScheduleDelivery.
//
//repro:hotpath
func (e *Engine) BeginMulticast(from int32, aux int64, payload any, sizeHint int) Multicast {
	if e.sink == nil {
		panic("sim: BeginMulticast requires a delivery sink (call SetDeliverySink)")
	}
	si := e.alloc()
	s := &e.slots[si]
	s.sink = true
	s.from = from
	s.aux = aux
	s.payload = payload
	mi := e.allocVec(sizeHint)
	s.multi = mi
	s.mpos = 0
	return Multicast{e: e, si: si, mi: mi}
}

// Add appends a recipient with its delivery time, consuming the next engine
// sequence number — exactly the one an equivalent unicast ScheduleDelivery
// would have taken, which is what keeps batched and unicast schedules
// identical. Dropped recipients are simply not added; a drop consumes no
// sequence number on the unicast path either. Delivery in the past panics,
// matching schedule.
//
//repro:hotpath
func (mc Multicast) Add(to int32, at time.Duration) {
	e := mc.e
	if at < e.now {
		panic(fmt.Sprintf("sim: multicast delivery at %v before now %v", at, e.now))
	}
	e.seq++
	e.multiExtra++
	e.mvecs[mc.mi] = append(e.mvecs[mc.mi], multiEntry{at: at, seq: e.seq, to: to})
}

// Commit sorts the recipient vector by (at, seq) and schedules the multicast
// as a single heap entry keyed by its earliest recipient. A multicast every
// link dropped schedules nothing and returns its storage immediately. The
// builder must not be used after Commit.
//
//repro:hotpath
func (mc Multicast) Commit() {
	e := mc.e
	vec := e.mvecs[mc.mi]
	s := &e.slots[mc.si]
	if len(vec) == 0 {
		s.multi = -1
		e.releaseVec(mc.mi)
		e.release(mc.si)
		return
	}
	sortEntries(vec)
	s.mpos = 0
	// The heap entry itself now stands for one recipient; Add counted all
	// of them in multiExtra.
	e.multiExtra--
	e.heapPush(heapEntry{at: vec[0].at, seq: vec[0].seq, si: mc.si})
}

// stepMulticast expands the next recipient of the multicast at the heap
// head, on behalf of Step (which has already advanced the clock to it). It
// delivers exactly one entry per call — executed counts, clock steps, and
// RunUntil predicate checks match the unicast schedule event for event —
// then re-keys the head entry to the next recipient in place, a single
// sift-down instead of a pop+push. The last entry pops the slot and returns
// its storage.
//
//repro:hotpath
func (e *Engine) stepMulticast(si int32) {
	s := &e.slots[si]
	vec := e.mvecs[s.multi]
	to := vec[s.mpos].to
	// Copy the shared fields out before any slot bookkeeping: the sink may
	// schedule, and growth of e.slots would invalidate s.
	from, aux, payload := s.from, s.aux, s.payload
	s.mpos++
	if int(s.mpos) < len(vec) {
		// Advancing to a later entry only grows the key, so a downward
		// sift restores the heap property. The heap entry now stands for
		// the next recipient instead of the delivered one.
		next := vec[s.mpos]
		e.heap[0].at, e.heap[0].seq = next.at, next.seq
		e.multiExtra--
		e.siftDown(0)
	} else {
		e.popMin()
		mi := s.multi
		s.multi = -1
		e.releaseVec(mi)
		e.release(si)
	}
	e.sink(from, to, aux, payload)
}

// allocVec takes a recipient vector from the pool (length zero, capacity
// whatever its last use grew it to): from the released stack, then from the
// clean tail beyond mused (see Engine.used — the same scheme), growing the
// pool only when every vector is attached to a scheduled multicast.
//
//repro:hotpath
func (e *Engine) allocVec(sizeHint int) int32 {
	var mi int32
	if n := len(e.mfree); n > 0 {
		mi = e.mfree[n-1]
		e.mfree = e.mfree[:n-1]
	} else {
		mi = e.mused
		if int(mi) == len(e.mvecs) {
			e.mvecs = append(e.mvecs, nil)
		}
		e.mused++
	}
	if cap(e.mvecs[mi]) < sizeHint {
		e.mvecs[mi] = make([]multiEntry, 0, sizeHint)
	}
	return mi
}

// releaseVec returns a vector to the pool, keeping its capacity.
//
//repro:hotpath
func (e *Engine) releaseVec(mi int32) {
	e.mvecs[mi] = e.mvecs[mi][:0]
	e.mfree = append(e.mfree, mi)
}

// insertionSortMax is the longest recipient vector sortEntries sorts by
// insertion. Measured on uniformly random delays (BenchmarkSortEntries, ns
// per vector, insertion vs heapsort): 17 entries 244 vs 447, 33 entries 653
// vs 1339, 128 entries 6.1k vs 8.5k, 192 entries even, 256 entries 20.7k vs
// 19.3k, 512 entries 94k vs 43k.
const insertionSortMax = 128

// sortEntries orders a recipient vector ascending by (at, seq), in place
// and without sort.Slice, whose closure would allocate on every broadcast:
// by insertion for the short vectors of the paper's cluster sizes (the
// scenario grid's mean vector is 19 entries), by heapsort above
// insertionSortMax so a population-scale broadcast keeps its O(n log n)
// bound. seq is unique per entry, so the order is total and needs no
// stability.
//
//repro:hotpath
func sortEntries(v []multiEntry) {
	if len(v) <= insertionSortMax {
		insertionSortEntries(v)
	} else {
		heapSortEntries(v)
	}
}

//repro:hotpath
func insertionSortEntries(v []multiEntry) {
	for i := 1; i < len(v); i++ {
		ent := v[i]
		j := i
		for j > 0 && entryBefore(ent, v[j-1]) {
			v[j] = v[j-1]
			j--
		}
		v[j] = ent
	}
}

//repro:hotpath
func heapSortEntries(v []multiEntry) {
	n := len(v)
	for i := n/2 - 1; i >= 0; i-- {
		siftDownEntry(v, i, n)
	}
	for i := n - 1; i > 0; i-- {
		v[0], v[i] = v[i], v[0]
		siftDownEntry(v, 0, i)
	}
}

// siftDownEntry restores the max-heap property over v[:n] from position i.
//
//repro:hotpath
func siftDownEntry(v []multiEntry, i, n int) {
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && entryBefore(v[c], v[c+1]) {
			c++
		}
		if !entryBefore(v[i], v[c]) {
			return
		}
		v[i], v[c] = v[c], v[i]
		i = c
	}
}

func entryBefore(a, b multiEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Reset returns the engine to its initial state under a fresh seed while
// keeping every piece of allocated storage — slot pool, heap backing array,
// multicast vectors, the random source — warm for reuse. Arena-style callers
// (scenario grid workers running thousands of cells) reset one engine per
// cell instead of constructing a new one; a reset engine produces schedules
// byte-identical to a freshly constructed engine's. The delivery sink is
// cleared so the next run's network can register its own, and all
// outstanding Event handles are invalidated. Reset allocates nothing and
// its cost follows the run just finished, not the largest run the engine
// ever hosted.
func (e *Engine) Reset(seed int64) {
	e.now = 0
	e.seq = 0
	// Re-seeding in place yields the stream rand.New(rand.NewSource(seed))
	// would, without the 5 KB source.
	e.rng.Seed(seed)
	e.stopped = false
	e.heap = e.heap[:0]
	e.sink = nil
	e.executed = 0
	e.limit = 0
	// Only slots[:used] were handed out since the last reset; the rest are
	// as clean as freshly appended ones. Bump generations so stale handles
	// stay inert and drop references so the pool does not pin the previous
	// run's callbacks or messages. With the free list empty and used back
	// at zero, alloc hands out slots 0, 1, 2, … exactly as a fresh engine
	// would.
	for i := range e.slots[:e.used] {
		s := &e.slots[i]
		s.gen++
		s.fn = nil
		s.payload = nil
		s.heapIdx = -1
		s.multi = -1
	}
	e.free = -1
	e.used = 0
	// Same for the vector pool.
	for i := range e.mvecs[:e.mused] {
		e.mvecs[i] = e.mvecs[i][:0]
	}
	e.mfree = e.mfree[:0]
	e.mused = 0
	e.multiExtra = 0
}
