package sim

import "time"

// Batched multicast: one slot fanning a shared payload out to many
// recipients.
//
// A fan-out keeps per-link semantics — each recipient has its own delivery
// time, drawn by the caller with the same randomness a loop of unicast sends
// would use — and each recipient is its own 24-byte calendar entry (at, seq,
// slot, to), queued by Add at the cost of any other delivery. What the
// recipients share is stored once: payload, sender and aux sit in one slot
// that counts the recipients still to be delivered and is recycled with the
// last, so an all-to-all round at population scale is N slots and N²
// entries. Every Add consumes the engine sequence number the equivalent
// ScheduleDelivery would have — which is the one-recipient case of the same
// two steps — so executed-event counts, clock advancement, RunUntil predicate
// granularity and the delivery order are those of the unicast schedule.

// Multicast accumulates the recipients of one batched fan-out. Obtain with
// BeginMulticast, Add each surviving recipient in the caller's deterministic
// recipient order, then Commit exactly once. The zero value is not usable.
type Multicast struct {
	e  *Engine
	si int32
}

// BeginMulticast starts a batched payload fan-out from one sender, which
// will invoke the delivery sink once per added recipient, in (time,
// sequence) order interleaved correctly with every other event. Recipients
// need no storage reserved ahead, so the last argument (the caller's
// expected recipient count) is not used. Requires SetDeliverySink, like
// ScheduleDelivery.
func (e *Engine) BeginMulticast(from int32, aux int64, payload any, _ int) Multicast {
	if e.sink == nil {
		panic("sim: BeginMulticast requires a delivery sink (call SetDeliverySink)")
	}
	return Multicast{e: e, si: e.fanout(from, aux, payload)}
}

// Add queues a recipient with its delivery time, consuming the next engine
// sequence number — exactly the one an equivalent unicast ScheduleDelivery
// would have taken, which is what keeps batched and unicast schedules
// identical. Dropped recipients are simply not added; a drop consumes no
// sequence number on the unicast path either. Delivery in the past panics,
// matching ScheduleDelivery.
func (mc Multicast) Add(to int32, at time.Duration) { mc.e.deliverAt(mc.si, to, at) }

// Commit ends the fan-out. Its recipients are already queued; a multicast
// every link dropped has none, so nothing will recycle its slot and Commit
// does. The builder must not be used after Commit.
func (mc Multicast) Commit() {
	if mc.e.slots[mc.si].rcpts == 0 {
		mc.e.release(mc.si)
	}
}

// Reset returns the engine to its initial state under a fresh seed while
// keeping every piece of allocated storage — slot pool, heap backing array,
// the calendar's slab, the random source — warm for reuse. Arena-style callers
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
	}
	e.free = -1
	e.used = 0
	e.cal.reset()
}
