// Package sim implements a deterministic discrete-event simulator.
//
// The simulator advances a virtual global clock by executing scheduled
// events in (time, sequence) order. All scheduling happens through a single
// Engine; there are no goroutines, so a run is a pure function of the
// initial schedule and the seed of the engine's random source. This is the
// substrate on which the paper's eventually-synchronous system model
// (internal/simnet) is built.
//
// The engine owns all event storage and queues each kind of event in the
// structure it needs. A callback (Schedule/After: a timer, a crash, a
// restart) can be canceled, and protocols cancel and re-arm one per message,
// so callbacks live in an indexed 4-ary min-heap that removes from the middle
// and holds only the handful that are armed. A payload delivery
// (ScheduleDelivery, Multicast.Add) is never canceled and the paper's hard
// regimes keep tens of thousands in flight, so deliveries live in a calendar
// of time buckets (calendar.go) where queuing one costs the same however
// many are queued. Step takes whichever head is earlier by (time, sequence),
// one counter numbering both kinds: the order a single queue would give.
// Slots come from a free list and both queues keep their storage, so the
// steady state (schedule, cancel, execute) allocates nothing. Handles
// returned by Schedule/After are generation-checked values, making a stale
// Cancel on an already-executed event a safe no-op even after its slot has
// been reused.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"
)

// DeliverySink receives payload-carrying events scheduled with
// ScheduleDelivery. One sink serves the whole engine: the network layer
// registers a single closure at construction instead of allocating one
// closure per message in flight. from/to address the endpoints, aux carries
// a small caller-defined integer (simnet uses it for the interned
// message-type ID), and payload is the message itself.
type DeliverySink func(from, to int32, aux int64, payload any)

// Engine is a discrete-event simulation engine. The zero value is not
// usable; construct with NewEngine.
type Engine struct {
	now     time.Duration
	seq     uint64
	rng     *rand.Rand
	stopped bool

	// slots is the engine-owned event storage; free heads the free-slot
	// list threaded through slot.next (-1 when empty). used counts the
	// slots handed out since construction or the last Reset: slots at or
	// beyond it are clean and are handed out in index order once the free
	// list is empty, so Reset only has to revisit slots[:used]. heap holds
	// one keyed entry per scheduled callback, ordered by (at, seq); cal
	// holds one entry per undelivered delivery.
	slots []slot
	free  int32
	used  int32
	heap  []heapEntry
	cal   calendar

	sink DeliverySink

	// executed counts events run so far (for budget enforcement and tests).
	executed uint64
	// limit, when non-zero, bounds the number of executed events as a
	// runaway-schedule backstop.
	limit uint64
}

// slot is one unit of event storage. A slot holds a callback (fn, present in
// the heap, heapIdx ≥ 0), or what the recipients of one fan-out share
// (payload, from, aux; rcpts calendar entries point at it, heapIdx = -1), or
// is free (on the free list via next); gen increments every time the slot
// is released, which is what invalidates stale Event handles.
type slot struct {
	fn      func()
	payload any
	aux     int64
	from    int32
	rcpts   int32
	gen     uint32
	heapIdx int32
	next    int32
}

// NewEngine returns an engine whose random source is seeded with seed.
func NewEngine(seed int64) *Engine {
	e := &Engine{rng: rand.New(rand.NewSource(seed)), free: -1}
	e.cal.reset()
	return e
}

// Now returns the current virtual global time.
func (e *Engine) Now() time.Duration { return e.now }

// Rand returns the engine's deterministic random source. Everything in a
// simulation that needs randomness must draw from this source (or a source
// derived from it) to keep runs reproducible.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Executed returns the number of events executed so far.
func (e *Engine) Executed() uint64 { return e.executed }

// SetEventLimit bounds the total number of events the engine will execute;
// Run methods return early once the limit is hit. Zero means no limit.
func (e *Engine) SetEventLimit(n uint64) { e.limit = n }

// SetDeliverySink registers the engine's delivery sink. Exactly one caller
// owns the sink (the simulated network); a second registration always means
// two networks are sharing one engine, which would misroute every delivery,
// so it panics.
func (e *Engine) SetDeliverySink(s DeliverySink) {
	if e.sink != nil {
		panic("sim: delivery sink already set (two networks on one engine?)")
	}
	e.sink = s
}

// Event is a handle to a scheduled callback, valid until the event executes
// or is canceled. The zero value is inert: Cancel and Pending on it are
// safe no-ops. Handles are generation-checked, so holding one past its
// event's execution is harmless even though the engine reuses the slot.
type Event struct {
	e   *Engine
	idx int32
	gen uint32
}

// Cancel prevents the event from executing and removes it from the event
// queue immediately. Timer-re-arm-heavy protocols cancel an event per
// SetTimer, so a canceled event must not linger in the heap: it would bloat
// the queue and make Pending lie. Canceling an already-executed or
// already-canceled event is a no-op.
func (ev Event) Cancel() {
	e := ev.e
	if e == nil {
		return
	}
	s := &e.slots[ev.idx]
	if s.gen != ev.gen || s.heapIdx < 0 {
		return
	}
	e.heapRemove(s.heapIdx)
	e.release(ev.idx)
}

// Pending reports whether the event is still scheduled (not yet executed or
// canceled).
func (ev Event) Pending() bool {
	if ev.e == nil {
		return false
	}
	s := &ev.e.slots[ev.idx]
	return s.gen == ev.gen && s.heapIdx >= 0
}

// At returns the virtual time the event is scheduled for, or 0 once it has
// executed or been canceled.
func (ev Event) At() time.Duration {
	if !ev.Pending() {
		return 0
	}
	return ev.e.heap[ev.e.slots[ev.idx].heapIdx].at
}

// alloc takes a slot from the free list, then from the clean tail a Reset
// left behind, growing storage only when every slot is scheduled (amortized;
// the steady state never grows). A reset engine therefore hands out the same
// slot indices as a fresh one: 0, 1, 2, … until the first release.
func (e *Engine) alloc() int32 {
	if e.free >= 0 {
		si := e.free
		e.free = e.slots[si].next
		return si
	}
	si := e.used
	if int(si) == len(e.slots) {
		e.slots = append(roomForOne(e.slots), slot{heapIdx: -1})
	}
	e.used++
	return si
}

// roomForOne returns s with capacity for another element, doubling a full
// slice. append alone grows a large slice by a quarter, which on the way to
// the million entries of a population-scale unicast round allocates and
// copies more than twice as much (BenchmarkBroadcastN1000/unicast: 472 MB
// and 104 allocations, against 210 MB and 52).
func roomForOne[E any](s []E) []E {
	if len(s) == cap(s) {
		s = slices.Grow(s, len(s)+1)
	}
	return s
}

// release returns a slot to the free list, bumping its generation so stale
// handles can never touch the next occupant, and dropping references so the
// slot does not pin callbacks or payloads for the GC.
func (e *Engine) release(si int32) {
	s := &e.slots[si]
	s.gen++
	s.fn = nil
	s.payload = nil
	s.heapIdx = -1
	s.next = e.free
	e.free = si
}

// Schedule runs fn at virtual time at. Scheduling in the past (before Now)
// always indicates a bug in the model, never a recoverable condition, and
// panics.
func (e *Engine) Schedule(at time.Duration, fn func()) Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	si := e.alloc()
	e.slots[si].fn = fn
	e.seq++
	e.heapPush(heapEntry{at: at, seq: e.seq, si: si})
	return Event{e: e, idx: si, gen: e.slots[si].gen}
}

// After runs fn d from now. Negative d is treated as zero.
func (e *Engine) After(d time.Duration, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return e.Schedule(e.now+d, fn)
}

// ScheduleDelivery schedules a payload-carrying event: at time at the
// engine's delivery sink is invoked with (from, to, aux, payload). This is
// the closure-free path for message traffic — the hot loop of every
// simulation — and requires SetDeliverySink to have been called. A delivery
// cannot be canceled, so there is no handle to return. Delivery in the past
// panics, as Schedule does.
func (e *Engine) ScheduleDelivery(at time.Duration, from, to int32, aux int64, payload any) {
	si := e.fanout(from, aux, payload)
	e.deliverAt(si, to, at)
}

// fanout takes a slot for what the recipients of one send share.
func (e *Engine) fanout(from int32, aux int64, payload any) int32 {
	si := e.alloc()
	s := &e.slots[si]
	s.from = from
	s.aux = aux
	s.payload = payload
	s.rcpts = 0
	return si
}

// deliverAt queues one recipient of the fan-out in slot si, consuming the
// next sequence number.
func (e *Engine) deliverAt(si, to int32, at time.Duration) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling delivery at %v before now %v", at, e.now))
	}
	e.seq++
	e.slots[si].rcpts++
	e.cal.n++
	e.cal.place(calEntry{at: at, seq: e.seq, slot: si, to: to})
}

// Stop makes the current Run call return after the current event finishes.
func (e *Engine) Stop() { e.stopped = true }

// Step executes the next pending event, advancing the clock to its time.
// It returns false when no events remain.
func (e *Engine) Step() bool { return e.step(math.MaxInt64) }

// step executes the next pending event unless it is due after until, and
// reports whether it did. It is the one place a queue head is inspected:
// the earlier of the calendar's and the heap's by (at, seq) runs.
//
// Both queues hold exactly the live events — Cancel removes eagerly, a
// delivery cannot be canceled, and execution pops before running — so a
// head needs no liveness check. limit is the time the clock is about to
// reach at most; the calendar is advanced no further (see calendar.go).
func (e *Engine) step(until time.Duration) bool {
	c := &e.cal
	limit, timers := until, len(e.heap) > 0
	if timers && e.heap[0].at < limit {
		limit = e.heap[0].at
	}
	if c.pos < len(c.cur) || c.n > 0 && c.advance(limit) {
		ent := c.cur[c.pos]
		if !timers || ent.before(calEntry{at: e.heap[0].at, seq: e.heap[0].seq}) {
			if ent.at > until {
				return false
			}
			c.pos++
			c.n--
			e.advanceClock(ent.at)
			// Copy the shared fields out and recycle the slot before
			// invoking: the sink may schedule (and the engine may hand it
			// this very slot), and growth of e.slots would invalidate s.
			s := &e.slots[ent.slot]
			from, aux, payload := s.from, s.aux, s.payload
			if s.rcpts--; s.rcpts == 0 {
				e.release(ent.slot)
			}
			e.sink(from, ent.to, aux, payload)
			return true
		}
	}
	if !timers || e.heap[0].at > until {
		return false
	}
	head := e.heap[0]
	e.advanceClock(head.at)
	e.popMin()
	fn := e.slots[head.si].fn
	e.release(head.si)
	fn()
	return true
}

// advanceClock moves the clock to the event about to execute.
func (e *Engine) advanceClock(at time.Duration) {
	if at < e.now {
		panic(fmt.Sprintf("sim: time went backwards: event at %v, now %v", at, e.now))
	}
	e.now = at
	e.executed++
}

// Run executes events until the queue drains, the time horizon passes, Stop
// is called, or the event limit is reached. Events scheduled exactly at the
// horizon still run; the first event strictly beyond it stays queued and the
// clock is left at the horizon. Draining the queue also leaves the clock at
// the horizon (matching RunUntil); only Stop and the event limit abort the
// run with the clock mid-way.
func (e *Engine) Run(until time.Duration) {
	e.stopped = false
	for !e.stopped {
		if e.limit > 0 && e.executed >= e.limit {
			return
		}
		if !e.step(until) {
			if until > e.now {
				e.now = until
			}
			return
		}
	}
}

// RunUntil executes events until pred returns true (checked after each
// event), the horizon passes, or the queue drains. It reports whether pred
// held when it returned.
func (e *Engine) RunUntil(pred func() bool, horizon time.Duration) bool {
	if pred() {
		return true
	}
	e.stopped = false
	for !e.stopped {
		if e.limit > 0 && e.executed >= e.limit {
			return pred()
		}
		if !e.step(horizon) {
			if e.now < horizon {
				e.now = horizon
			}
			return pred()
		}
		if pred() {
			return true
		}
	}
	return pred()
}

// Pending returns the number of queued events: scheduled callbacks plus
// undelivered deliveries, each recipient of a multicast counted — the value
// an equivalent unicast schedule would report. Canceled events are removed
// eagerly, so they never count.
func (e *Engine) Pending() int { return len(e.heap) + e.cal.n }

// --- the callback queue ---
//
// A 4-ary min-heap ordered by (at, seq) whose entries hold the key inline
// beside the slot index, and whose slots record where their entry sits
// (slot.heapIdx) so Cancel can remove it from the middle. The ordering key
// is total (seq is unique per event), so the pop order — and therefore the
// schedule — is independent of heap arity and internal layout.
//
// It holds callbacks only: the timers a run has armed (a few per process)
// and its pending crashes and restarts, so a sift is a handful of levels
// over entries that stay in cache — 4-ary trading slightly more comparisons
// per sift-down for half the depth, the inlined loops avoiding
// container/heap's interface dispatch and per-push boxing. Deliveries, which
// would bury those entries thousands deep, are queued in the calendar.
//
// Structural invariant: the heap contains exactly the scheduled callbacks.
// Cancel removes its event eagerly (heapRemove) and step pops before
// executing, so the head is always live.

// heapEntry is one queued event: its ordering key and the slot holding the
// rest of it.
type heapEntry struct {
	at  time.Duration
	seq uint64
	si  int32
}

// before reports whether a executes before b.
func (a heapEntry) before(b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapPush appends an entry and restores the heap property upward.
func (e *Engine) heapPush(ent heapEntry) {
	e.heap = append(roomForOne(e.heap), ent)
	e.siftUp(int32(len(e.heap) - 1))
}

// popMin removes the earliest entry.
func (e *Engine) popMin() {
	h := e.heap
	e.slots[h[0].si].heapIdx = -1
	n := len(h) - 1
	e.heap = h[:n]
	if n > 0 {
		h[0] = h[n]
		e.siftDown(0)
	}
}

// heapRemove removes the entry at heap position i (Cancel's path).
func (e *Engine) heapRemove(i int32) {
	h := e.heap
	n := int32(len(h)) - 1
	e.slots[h[i].si].heapIdx = -1
	e.heap = h[:n]
	if i == n {
		return
	}
	moved := h[n]
	h[i] = moved
	e.siftDown(i)
	// If siftDown left it in place it may still violate the property
	// upward; siftUp is a no-op otherwise.
	e.siftUp(e.slots[moved.si].heapIdx)
}

// siftUp restores the heap property from position i toward the root.
func (e *Engine) siftUp(i int32) {
	h := e.heap
	ent := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if h[p].before(ent) {
			break
		}
		h[i] = h[p]
		e.slots[h[i].si].heapIdx = i
		i = p
	}
	h[i] = ent
	e.slots[ent.si].heapIdx = i
}

// siftDown restores the heap property from position i toward the leaves.
func (e *Engine) siftDown(i int32) {
	h := e.heap
	n := int32(len(h))
	ent := h[i]
	for {
		c := i*4 + 1
		if c >= n {
			break
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for k := c + 1; k < end; k++ {
			if h[k].before(h[best]) {
				best = k
			}
		}
		if !h[best].before(ent) {
			break
		}
		h[i] = h[best]
		e.slots[h[i].si].heapIdx = i
		i = best
	}
	h[i] = ent
	e.slots[ent.si].heapIdx = i
}
