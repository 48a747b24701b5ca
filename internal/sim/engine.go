// Package sim implements a deterministic discrete-event simulator.
//
// The simulator advances a virtual global clock by executing scheduled
// events in (time, sequence) order. All scheduling happens through a single
// Engine; there are no goroutines, so a run is a pure function of the
// initial schedule and the seed of the engine's random source. This is the
// substrate on which the paper's eventually-synchronous system model
// (internal/simnet) is built.
//
// The engine owns all event storage: scheduling reuses slots from a free
// list and the ready queue is a specialized 4-ary min-heap whose entries
// carry their (time, sequence) key inline, so the steady state (schedule,
// cancel, execute — the simulator's entire inner loop) allocates nothing
// and ordering the queue never dereferences a slot. Handles returned by
// Schedule/After are generation-checked values, making a stale Cancel on an
// already-executed event a safe no-op even after its slot has been reused.
package sim

import (
	"fmt"
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
	// one keyed entry per scheduled slot, ordered by (at, seq).
	slots []slot
	free  int32
	used  int32
	heap  []heapEntry

	// mvecs is the engine-owned storage for multicast recipient vectors
	// (see multicast.go); mfree stacks the indices of released vectors and
	// mused counts the vectors handed out since the last Reset, as used does
	// for slots. Vectors keep their capacity when released, so steady-state
	// broadcasting allocates nothing.
	// multiExtra counts multicast recipients beyond the one the heap entry
	// represents, so Pending can report undelivered deliveries — the same
	// number a unicast schedule would — in O(1).
	mvecs      [][]multiEntry
	mfree      []int32
	mused      int32
	multiExtra int

	sink DeliverySink

	// executed counts events run so far (for budget enforcement and tests).
	executed uint64
	// limit, when non-zero, bounds the number of executed events as a
	// runaway-schedule backstop.
	limit uint64
}

// slot is one unit of event storage. A slot is either scheduled (present in
// the heap, heapIdx ≥ 0) or free (on the free list via next, heapIdx = -1);
// gen increments every time the slot leaves the scheduled state, which is
// what invalidates stale Event handles.
type slot struct {
	fn      func()
	payload any
	aux     int64
	from    int32
	to      int32
	gen     uint32
	heapIdx int32
	next    int32
	// multi indexes the slot's recipient vector in Engine.mvecs when the
	// slot is a multicast (-1 otherwise); mpos is the next vector entry to
	// deliver. While scheduled, the slot's heap entry carries the key of the
	// entry at mpos, so the heap orders a multicast by its earliest
	// undelivered recipient.
	multi int32
	mpos  int32
	sink  bool
}

// NewEngine returns an engine whose random source is seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed)), free: -1}
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
//
//repro:hotpath
func (e *Engine) alloc() int32 {
	if e.free >= 0 {
		si := e.free
		e.free = e.slots[si].next
		return si
	}
	si := e.used
	if int(si) == len(e.slots) {
		e.slots = append(roomForOne(e.slots), slot{multi: -1, heapIdx: -1})
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
//
//repro:hotpath
func (e *Engine) release(si int32) {
	s := &e.slots[si]
	s.gen++
	s.fn = nil
	s.payload = nil
	s.heapIdx = -1
	s.next = e.free
	e.free = si
}

// schedule places a freshly-populated slot into the queue and returns its
// handle. The caller must have set every payload field; schedule assigns
// the (at, seq) ordering key.
//
//repro:hotpath
func (e *Engine) schedule(at time.Duration, si int32) Event {
	if at < e.now {
		// Scheduling in the past always indicates a bug in the model,
		// never a recoverable condition.
		e.release(si)
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	e.seq++
	e.heapPush(heapEntry{at: at, seq: e.seq, si: si})
	return Event{e: e, idx: si, gen: e.slots[si].gen}
}

// Schedule runs fn at virtual time at. Scheduling in the past (before Now)
// panics.
//
//repro:hotpath
func (e *Engine) Schedule(at time.Duration, fn func()) Event {
	si := e.alloc()
	s := &e.slots[si]
	s.fn = fn
	s.sink = false
	return e.schedule(at, si)
}

// After runs fn d from now. Negative d is treated as zero.
//
//repro:hotpath
func (e *Engine) After(d time.Duration, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return e.Schedule(e.now+d, fn)
}

// ScheduleDelivery schedules a payload-carrying event: at time at the
// engine's delivery sink is invoked with (from, to, aux, payload). This is
// the closure-free path for message traffic — the hot loop of every
// simulation — and requires SetDeliverySink to have been called.
//
//repro:hotpath
func (e *Engine) ScheduleDelivery(at time.Duration, from, to int32, aux int64, payload any) Event {
	si := e.alloc()
	s := &e.slots[si]
	s.sink = true
	s.from = from
	s.to = to
	s.aux = aux
	s.payload = payload
	return e.schedule(at, si)
}

// Stop makes the current Run call return after the current event finishes.
func (e *Engine) Stop() { e.stopped = true }

// Step executes the next pending event, advancing the clock to its time.
// It returns false when no events remain.
//
// The heap holds exactly the live events — Cancel removes eagerly and
// execution pops before running the callback — so the head needs no
// liveness check (the invariant the pooled queue makes structural).
//
//repro:hotpath
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	head := e.heap[0]
	if head.at < e.now {
		panic(fmt.Sprintf("sim: time went backwards: event at %v, now %v", head.at, e.now))
	}
	e.now = head.at
	e.executed++
	si := head.si
	s := &e.slots[si]
	if s.multi >= 0 {
		e.stepMulticast(si)
		return true
	}
	e.popMin()
	// Copy the callback out and recycle the slot before invoking: the
	// callback may schedule (and the engine may hand it this very slot),
	// and growth of e.slots would invalidate s.
	fn, isSink := s.fn, s.sink
	from, to, aux, payload := s.from, s.to, s.aux, s.payload
	e.release(si)
	if isSink {
		e.sink(from, to, aux, payload)
	} else {
		fn()
	}
	return true
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
		if len(e.heap) == 0 || e.heap[0].at > until {
			if until > e.now {
				e.now = until
			}
			return
		}
		e.Step()
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
		if len(e.heap) == 0 || e.heap[0].at > horizon {
			if e.now < horizon {
				e.now = horizon
			}
			return pred()
		}
		e.Step()
		if pred() {
			return true
		}
	}
	return pred()
}

// Pending returns the number of queued events, counting each undelivered
// multicast recipient individually — the value is identical to what an
// equivalent unicast schedule would report. Canceled events are removed
// eagerly, so they never count.
func (e *Engine) Pending() int { return len(e.heap) + e.multiExtra }

// --- the event queue ---
//
// A 4-ary min-heap ordered by (at, seq) whose entries hold the key inline
// beside the slot index. The ordering key is total (seq is unique per
// event), so the pop order — and therefore the schedule — is independent of
// heap arity and internal layout; switching from the binary container/heap,
// and later from a heap of bare slot indices, changed no schedules.
//
// The layout is for the queue the paper's regimes build: messages sent
// before TS and delivered long after sit in it by the thousand (tens of
// thousands under a duplicating, reordering adversary), so a sift runs many
// levels through memory that is not in cache. With the key inline a sift
// compares heap entries only — the four children of a node are 96
// contiguous bytes — and touches the slot pool just to record where an
// entry moved (slot.heapIdx, a store nothing waits for). 4-ary trades
// slightly more comparisons per sift-down for half the tree depth, and the
// inlined loops avoid container/heap's interface dispatch and per-push
// boxing.
//
// Structural invariant: the heap contains exactly the scheduled slots.
// Cancel removes its event eagerly (heapRemove) and Step pops before
// executing, so the head is always live.

// heapEntry is one queued event: its ordering key and the slot holding the
// rest of it.
type heapEntry struct {
	at  time.Duration
	seq uint64
	si  int32
}

// before reports whether a executes before b.
//
//repro:hotpath
func (a heapEntry) before(b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapPush appends an entry and restores the heap property upward.
//
//repro:hotpath
func (e *Engine) heapPush(ent heapEntry) {
	e.heap = append(roomForOne(e.heap), ent)
	e.siftUp(int32(len(e.heap) - 1))
}

// popMin removes the earliest entry.
//
//repro:hotpath
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
//
//repro:hotpath
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
//
//repro:hotpath
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
//
//repro:hotpath
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
