package sim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// The engine's two queues — the callback heap and the delivery calendar —
// are checked together against a model that shares none of their code: one
// binary container/heap of (at, seq) keys — the total order the engine's
// first queue implemented and the determinism guarantee rests on — with
// cancellations discarded lazily. A byte program drives both; after every
// operation the engine must agree with the model on what ran and when, on
// the clock and on Pending(). TestHeapStressAgainstReferenceOrder feeds it a
// long seeded program over a deep queue, FuzzEngineSchedule whatever the
// fuzzer finds.

type refKey struct {
	at  time.Duration
	seq uint64
	id  int
}

type refHeap []refKey

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refKey)) }
func (h *refHeap) Pop() any {
	old := *h
	k := old[len(old)-1]
	*h = old[:len(old)-1]
	return k
}

// queueProgram interprets a byte program against an engine and the model.
type queueProgram struct {
	t   testing.TB
	e   *Engine
	ref refHeap
	seq uint64 // mirrors the engine's sequence counter

	// due[id] tells whether delivery id — one per callback, unicast
	// delivery or multicast recipient ever scheduled — is still to run;
	// live counts them (the model's Pending()) and deepest is its maximum.
	due           []bool
	live, deepest int

	// handles[k] is the k-th cancelable event issued — callbacks only, a
	// delivery has no handle — and ids[k] the delivery behind it. Handles
	// are kept for ever, so Cancel operations also land on executed,
	// canceled and reset-away events. farCancels counts those that removed a
	// pending far-future event.
	handles    []Event
	ids        []int
	farCancels int

	// What the engine executed in the current Step or Run, and the clock it
	// showed each.
	ran   []int
	ranAt []time.Duration
}

func newQueueProgram(t testing.TB) *queueProgram {
	q := &queueProgram{t: t, e: NewEngine(1)}
	q.e.SetDeliverySink(q.sink)
	return q
}

// sink identifies a delivery by aux (the first id of its fan-out) plus the
// recipient's position in it.
func (q *queueProgram) sink(from, to int32, aux int64, payload any) {
	q.record(int(aux) + int(to))
}

func (q *queueProgram) record(id int) {
	q.ran = append(q.ran, id)
	q.ranAt = append(q.ranAt, q.e.Now())
}

// The calendar's bucket widths, as delays.
const (
	fineWidth   = time.Duration(1) << fineShift
	coarseWidth = time.Duration(1) << coarseShift
	spanWidth   = time.Duration(1) << spanShift
)

// edgeDelays are delays within one fine bucket and on, just before and just
// after the edges of every tier. A delay counts from the clock, and the
// clock is on an edge at the start of a program and after an opRun with one
// of these operands.
var edgeDelays = [32]time.Duration{
	0, 1, 2, 100, time.Microsecond, fineWidth / 2, fineWidth - 2, fineWidth - 1,
	fineWidth, fineWidth + 1, 2*fineWidth - 1, 2 * fineWidth, 3*fineWidth + 7, coarseWidth - fineWidth - 1, coarseWidth - fineWidth, coarseWidth - 1,
	coarseWidth, coarseWidth + 1, coarseWidth + fineWidth, 2*coarseWidth - 1, 2 * coarseWidth, 5*coarseWidth + 3*fineWidth, spanWidth - coarseWidth - 1, spanWidth - coarseWidth,
	spanWidth - fineWidth, spanWidth - 1, spanWidth, spanWidth + 1, spanWidth + fineWidth, spanWidth + coarseWidth, 2*spanWidth - 1, 2 * spanWidth,
}

// delay decodes one operand byte into a delay for each part of the queue.
// The first quarter is a millisecond grid inside the fine tier, so ties on
// the time are common and the sequence number decides; then edgeDelays;
// then tenths of a second up to just beyond one span, the coarse tier; and
// the top quarter is far-future — the obsolete messages that make the queue
// deep, the calendar's overflow.
func delay(b byte) time.Duration {
	switch {
	case b < 64:
		return time.Duration(b/2) * time.Millisecond
	case b < 96:
		return edgeDelays[b-64]
	case b < 192:
		return time.Duration(b-95) * 100 * time.Millisecond
	}
	return time.Hour + time.Duration(b-192)*time.Minute
}

// add enters a delivery due at at into the model and returns its id.
func (q *queueProgram) add(at time.Duration) int {
	q.seq++
	id := len(q.due)
	q.due = append(q.due, true)
	heap.Push(&q.ref, refKey{at: at, seq: q.seq, id: id})
	q.live++
	if q.live > q.deepest {
		q.deepest = q.live
	}
	return id
}

func (q *queueProgram) hold(ev Event, id int) {
	q.handles = append(q.handles, ev)
	q.ids = append(q.ids, id)
}

// next removes the model's next delivery, if it is due by horizon.
func (q *queueProgram) next(horizon time.Duration) (refKey, bool) {
	for q.ref.Len() > 0 && (!q.due[q.ref[0].id] || q.ref[0].at <= horizon) {
		k := heap.Pop(&q.ref).(refKey)
		if q.due[k.id] {
			q.due[k.id] = false
			q.live--
			return k, true
		}
	}
	return refKey{}, false
}

// ranWere holds what the engine just executed against the model's want.
func (q *queueProgram) ranWere(want []refKey) {
	if len(q.ran) != len(want) {
		q.t.Fatalf("engine ran %d deliveries %v, model expects %d", len(q.ran), q.ran, len(want))
	}
	for i, k := range want {
		if q.ran[i] != k.id || q.ranAt[i] != k.at {
			q.t.Fatalf("engine ran delivery %d at %v, model expects %d (at %v, seq %d)", q.ran[i], q.ranAt[i], k.id, k.at, k.seq)
		}
	}
	q.ran, q.ranAt = q.ran[:0], q.ranAt[:0]
	q.check()
}

// step executes one engine event and holds it against the model's next.
func (q *queueProgram) step() bool {
	want, found := q.next(math.MaxInt64)
	if got := q.e.Step(); got != found {
		q.t.Fatalf("Step() = %v with %d deliveries due in the model", got, q.live)
	}
	if !found {
		return false
	}
	q.ranWere([]refKey{want})
	if q.e.Now() != want.at {
		q.t.Fatalf("clock at %v after a delivery due at %v", q.e.Now(), want.at)
	}
	return true
}

// runTo runs the engine to horizon — where it inspects, and leaves queued,
// whatever is due next — and holds what ran against the model.
func (q *queueProgram) runTo(horizon time.Duration) {
	var want []refKey
	for k, ok := q.next(horizon); ok; k, ok = q.next(horizon) {
		want = append(want, k)
	}
	q.e.Run(horizon)
	q.ranWere(want)
	if q.e.Now() != horizon {
		q.t.Fatalf("clock at %v after Run(%v)", q.e.Now(), horizon)
	}
}

func (q *queueProgram) check() {
	if got := q.e.Pending(); got != q.live {
		q.t.Fatalf("Pending() = %d, model has %d due", got, q.live)
	}
}

// Opcodes, taken modulo opCount from a program byte.
const (
	opSchedule  = iota // delay
	opAfter            // delay
	opDelivery         // delay
	opMulticast        // recipients (mod 8), then one delay each
	opCancel           // handle number, two bytes
	opStep             // events (mod 16)
	opReset            // one byte, ignored
	opRun              // delay to the horizon
	opCount
)

// run interprets prog to its end and then drains the queue. An operation is
// an opcode byte followed by its operands, at least one; a program that ends
// inside an operation ends there.
func (q *queueProgram) run(prog []byte) {
	next := func() (byte, bool) {
		if len(prog) == 0 {
			return 0, false
		}
		b := prog[0]
		prog = prog[1:]
		return b, true
	}
	for {
		op, ok := next()
		if !ok {
			break
		}
		arg, ok := next()
		if !ok {
			break
		}
		now := q.e.Now()
		switch op % opCount {
		case opSchedule:
			id := q.add(now + delay(arg))
			q.hold(q.e.Schedule(now+delay(arg), func() { q.record(id) }), id)
		case opAfter:
			id := q.add(now + delay(arg))
			q.hold(q.e.After(delay(arg), func() { q.record(id) }), id)
		case opDelivery:
			id := q.add(now + delay(arg))
			q.e.ScheduleDelivery(now+delay(arg), 0, 0, int64(id), nil)
		case opMulticast:
			mc := q.e.BeginMulticast(0, int64(len(q.due)), nil, int(arg%8))
			for to := 0; to < int(arg%8); to++ {
				d, ok := next()
				if !ok {
					break
				}
				q.add(now + delay(d))
				mc.Add(int32(to), now+delay(d))
			}
			mc.Commit()
		case opCancel:
			lo, ok := next()
			if !ok || len(q.handles) == 0 {
				break
			}
			k := (int(arg)<<8 | int(lo)) % len(q.handles)
			ev, id := q.handles[k], q.ids[k]
			if ev.Pending() != q.due[id] {
				q.t.Fatalf("handle %d: Pending() = %v, model says %v", k, ev.Pending(), q.due[id])
			}
			if q.due[id] && ev.At() >= q.e.Now()+time.Hour {
				q.farCancels++
			}
			ev.Cancel()
			if q.due[id] {
				q.due[id] = false
				q.live--
			}
			if ev.Pending() {
				q.t.Fatalf("handle %d still pending after Cancel", k)
			}
		case opStep:
			for i := 0; i < int(arg%16) && q.step(); i++ {
			}
		case opReset:
			// Everything still due is gone and every handle is stale; the
			// engine must then behave as a new one.
			q.e.Reset(1)
			q.e.SetDeliverySink(q.sink)
			q.ref, q.seq, q.live = q.ref[:0], 0, 0
			clear(q.due)
		case opRun:
			q.runTo(now + delay(arg))
		}
		q.check()
	}
	for q.step() {
	}
}

// TestHeapStressAgainstReferenceOrder runs a long seeded program over a
// queue as deep as the adversarial regimes make it. More than 20 000
// far-future events go in first — most as callbacks, which sink to the
// bottom of the heap, the rest as unicast deliveries and as the later
// recipients of multicasts whose first recipients are near, which all share
// the calendar's overflow — and stay while near-future traffic of every tier
// is scheduled, canceled, stepped and run to a horizon above them. Cancels
// pick among all handles ever issued, so most pull a far callback out of the
// depths of the heap.
func TestHeapStressAgainstReferenceOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	near := func() byte { return byte(rng.Intn(192)) }
	far := func() byte { return byte(192 + rng.Intn(64)) }
	var prog []byte
	for i := 0; i < 16000; i++ {
		prog = append(prog, byte(rng.Intn(4)%3), far()) // half opSchedule
	}
	for i := 0; i < 1500; i++ {
		prog = append(prog, opMulticast, 7, near(), far(), near(), far(), far(), near(), far())
	}
	for i := 0; i < 40000; i++ {
		switch r := rng.Intn(20); {
		case r < 6:
			prog = append(prog, byte(rng.Intn(3)), near())
		case r < 8:
			prog = append(prog, byte(rng.Intn(3)), far())
		case r < 10:
			recipients := rng.Intn(8)
			prog = append(prog, opMulticast, byte(recipients))
			for k := 0; k < recipients; k++ {
				if k%3 == 1 {
					prog = append(prog, far())
				} else {
					prog = append(prog, near())
				}
			}
		case r < 16:
			prog = append(prog, opCancel, byte(rng.Intn(256)), byte(rng.Intn(256)))
		case r < 19:
			prog = append(prog, opStep, byte(rng.Intn(6)))
		default:
			prog = append(prog, opRun, byte(rng.Intn(64+22))) // a few coarse buckets at most
		}
	}
	q := newQueueProgram(t)
	q.run(prog)
	if q.deepest < 20000 {
		t.Fatalf("queue only reached %d pending entries, want ≥ 20000", q.deepest)
	}
	t.Logf("deepest %d, far cancels %d, deliveries %d", q.deepest, q.farCancels, len(q.due))
	if q.farCancels < 5000 {
		t.Fatalf("only %d cancels hit a pending far-future entry, want ≥ 5000", q.farCancels)
	}
}

// FuzzEngineSchedule lets the fuzzer write the program. The seeds are one
// per case the two queues and the three tiers of the calendar make.
func FuzzEngineSchedule(f *testing.F) {
	const (
		sub, edge = 64 + 3, 64 + 8 // 100 ns; exactly one fine bucket
		coarse    = 64 + 16        // exactly one coarse bucket
		span      = 64 + 26        // exactly one span
		second    = 105
		hour      = 200
	)
	f.Add([]byte{})
	f.Add([]byte{opSchedule, 10, opAfter, 10, opDelivery, 10, opStep, 3})
	f.Add([]byte{opMulticast, 5, 8, 200, 8, 0, 255, opStep, 2, opDelivery, 3, opStep, 15})
	f.Add([]byte{opAfter, 40, opAfter, 250, opCancel, 0, 1, opCancel, 0, 1, opStep, 1, opCancel, 0, 0})
	f.Add([]byte{opSchedule, 200, opMulticast, 3, 1, 2, 3, opStep, 1, opReset, 0, opCancel, 0, 0, opAfter, 7, opStep, 1})
	// Every link dropped, then a fan-out that reuses the slot.
	f.Add([]byte{opMulticast, 0, opMulticast, 2, 4, opStep, 9})
	// Ties inside one fine bucket, in cur and in a bucket ahead, callbacks
	// and deliveries mixed.
	f.Add([]byte{opDelivery, sub, opAfter, sub, opDelivery, sub, opDelivery, 64, opDelivery, 20, opSchedule, 20, opDelivery, 20, opMulticast, 3, 20, 20, sub, opStep, 15})
	// Both sides of every tier's edge, from a clock that stands on one.
	f.Add([]byte{opRun, edge, opDelivery, edge - 1, opDelivery, edge, opDelivery, edge + 1, opDelivery, coarse - 1, opDelivery, coarse, opDelivery, coarse + 1,
		opDelivery, span - 1, opDelivery, span, opDelivery, span + 1, opRun, coarse, opDelivery, 64, opDelivery, coarse - 1, opDelivery, coarse, opRun, span, opDelivery, 64, opStep, 15})
	// A lone delivery a second away: the calendar jumps an empty fine tier
	// and most of the coarse one, then the same into the overflow.
	f.Add([]byte{opDelivery, second, opStep, 1, opDelivery, 3, opStep, 1, opDelivery, hour, opStep, 1, opDelivery, 3, opDelivery, second, opStep, 3})
	// One multicast with a recipient in cur, the fine tier, the coarse tier
	// and the overflow.
	f.Add([]byte{opMulticast, 7, sub, 9, second, hour, sub, 40, 180, opStep, 3, opDelivery, 2, opStep, 15})
	// Run inspects a head beyond its horizon — a callback's, then a far
	// delivery's — and what is scheduled next is due before that head, in
	// the same bucket and in earlier ones.
	f.Add([]byte{opDelivery, second, opAfter, 30, opRun, 20, opDelivery, sub, opDelivery, 9, opDelivery, second - 1, opRun, 25, opDelivery, sub, opAfter, sub, opStep, 15})
	f.Add([]byte{opDelivery, hour, opRun, second, opDelivery, 1, opDelivery, second, opRun, 2, opDelivery, sub, opDelivery, hour - 1, opStep, 15})
	// Reset with entries in cur, every tier and the heap; the engine then
	// takes the same again.
	f.Add([]byte{opDelivery, sub, opDelivery, 9, opDelivery, second, opDelivery, hour, opAfter, 9, opMulticast, 4, sub, 9, second, hour, opStep, 1, opReset, 0,
		opDelivery, sub, opDelivery, 9, opDelivery, second, opDelivery, hour, opAfter, 9, opMulticast, 4, sub, 9, second, hour, opStep, 15})
	f.Fuzz(func(t *testing.T, prog []byte) {
		newQueueProgram(t).run(prog)
	})
}

// BenchmarkDeepQueue measures one Step of the queue the paper's regimes
// build, which BenchmarkCancelRearmChurn and the near-empty queue of a
// stable run do not: thousands of obsolete messages — sent before TS, due
// long after — sit under the live traffic. They are deliveries, so they sit
// in the calendar's overflow and a Step must cost the same at every depth;
// in one heap with the timers every pop sifted a far-future entry from the
// root to the bottom and every cancel did the same from the middle. The live
// traffic is the grid's mix: heartbeat timers that fan a multicast out to 19
// recipients and re-arm themselves, and recipients that re-arm a session
// timer on every delivery. The pre-loaded entries fit a 2 MB L2 cache, so
// this shows the queue's instruction cost; the cache misses a grid worker
// sees on top of it only show in a scenario.Grid pass.
func BenchmarkDeepQueue(b *testing.B) {
	const (
		procs  = 19
		delta  = 10 * time.Millisecond
		minLag = delta / 10
	)
	for _, depth := range []int{0, 2000, 20000} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			e := NewEngine(1)
			rng := e.Rand()
			var payload any = "m"
			session := make([]Event, procs)
			nop := func() {}
			e.SetDeliverySink(func(from, to int32, aux int64, p any) {
				if to < 0 {
					return // an obsolete message; never reached here
				}
				session[to].Cancel()
				session[to] = e.After(4*delta, nop)
			})
			for i := 0; i < depth; i++ {
				e.ScheduleDelivery(time.Hour+time.Duration(rng.Int63n(int64(time.Hour))), 0, -1, 0, payload)
			}
			beats := make([]func(), procs)
			for p := range beats {
				p := p
				beats[p] = func() {
					mc := e.BeginMulticast(int32(p), 0, payload, procs)
					for to := 0; to < procs; to++ {
						mc.Add(int32(to), e.Now()+minLag+time.Duration(rng.Int63n(int64(delta-minLag))))
					}
					mc.Commit()
					e.After(delta/2, beats[p])
				}
				e.After(time.Duration(rng.Int63n(int64(delta/2))), beats[p])
			}
			for i := 0; i < 10000; i++ { // reach the steady state, warm the pools
				e.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
			b.StopTimer()
			if live := e.Pending() - depth; live < procs || live > 100*procs {
				b.Fatalf("%d live events over the %d pre-loaded: the churn is not in a steady state", live, depth)
			}
		})
	}
}
