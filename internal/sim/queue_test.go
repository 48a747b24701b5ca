package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// The queue is checked against a model that shares none of its code: a
// binary container/heap of (at, seq) keys — the total order the engine's
// first queue implemented and the determinism guarantee rests on — with
// cancellations discarded lazily. A byte program drives both; after every
// operation the engine must agree with the model on what ran, on the clock
// and on Pending(). TestHeapStressAgainstReferenceOrder feeds it a long
// seeded program over a deep queue, FuzzEngineSchedule whatever the fuzzer
// finds.

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

	// handles[k] is the k-th cancelable event issued and ids[k] the
	// delivery behind it. Handles are kept for ever, so Cancel operations
	// also land on executed, canceled and reset-away events. farCancels
	// counts those that removed a pending far-future event.
	handles    []Event
	ids        []int
	farCancels int

	ran []int // deliveries the engine executed in the current Step
}

func newQueueProgram(t testing.TB) *queueProgram {
	q := &queueProgram{t: t, e: NewEngine(1)}
	q.e.SetDeliverySink(q.sink)
	return q
}

// sink identifies a delivery by aux (the first id of its fan-out) plus the
// recipient's position in it.
func (q *queueProgram) sink(from, to int32, aux int64, payload any) {
	q.ran = append(q.ran, int(aux)+int(to))
}

// delay decodes one operand byte: three quarters are near-future delays on a
// coarse grid, so ties on the time are common and the sequence number
// decides; the top quarter is far-future — the obsolete messages that make
// the queue deep.
func delay(b byte) time.Duration {
	if b < 192 {
		return time.Duration(b/4) * time.Millisecond
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

// step executes one engine event and holds it against the model's next.
func (q *queueProgram) step() bool {
	var want refKey
	found := false
	for !found && q.ref.Len() > 0 {
		want = heap.Pop(&q.ref).(refKey)
		found = q.due[want.id]
	}
	q.ran = q.ran[:0]
	if got := q.e.Step(); got != found {
		q.t.Fatalf("Step() = %v with %d deliveries due in the model", got, q.live)
	}
	if !found {
		return false
	}
	q.due[want.id] = false
	q.live--
	if len(q.ran) != 1 || q.ran[0] != want.id {
		q.t.Fatalf("engine ran %v, model expects delivery %d (at %v, seq %d)", q.ran, want.id, want.at, want.seq)
	}
	if q.e.Now() != want.at {
		q.t.Fatalf("clock at %v after a delivery due at %v", q.e.Now(), want.at)
	}
	q.check()
	return true
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
			q.hold(q.e.Schedule(now+delay(arg), func() { q.ran = append(q.ran, id) }), id)
		case opAfter:
			id := q.add(now + delay(arg))
			q.hold(q.e.After(delay(arg), func() { q.ran = append(q.ran, id) }), id)
		case opDelivery:
			id := q.add(now + delay(arg))
			q.hold(q.e.ScheduleDelivery(now+delay(arg), 0, 0, int64(id), nil), id)
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
		}
		q.check()
	}
	for q.step() {
	}
}

// TestHeapStressAgainstReferenceOrder runs a long seeded program over a
// queue as deep as the adversarial regimes make it. More than 20 000
// far-future deliveries go in first — as callbacks, as unicast deliveries,
// and as the later recipients of multicasts whose first recipients are near,
// so that once those are delivered the multicast is re-keyed at the head and
// sinks to the bottom of the heap to sit buried there — and stay while
// near-future traffic is scheduled, canceled and executed above them.
// Cancels pick among all handles ever issued, so most pull a far entry out
// of the depths.
func TestHeapStressAgainstReferenceOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	near := func() byte { return byte(rng.Intn(192)) }
	far := func() byte { return byte(192 + rng.Intn(64)) }
	var prog []byte
	for i := 0; i < 16000; i++ {
		prog = append(prog, byte(rng.Intn(3)), far())
	}
	for i := 0; i < 1500; i++ {
		prog = append(prog, opMulticast, 7, near(), far(), near(), far(), far(), near(), far())
	}
	for i := 0; i < 40000; i++ {
		switch r := rng.Intn(10); {
		case r < 3:
			prog = append(prog, byte(rng.Intn(3)), near())
		case r < 4:
			prog = append(prog, byte(rng.Intn(3)), far())
		case r < 5:
			recipients := rng.Intn(8)
			prog = append(prog, opMulticast, byte(recipients))
			for k := 0; k < recipients; k++ {
				if k%3 == 1 {
					prog = append(prog, far())
				} else {
					prog = append(prog, near())
				}
			}
		case r < 8:
			prog = append(prog, opCancel, byte(rng.Intn(256)), byte(rng.Intn(256)))
		default:
			prog = append(prog, opStep, byte(rng.Intn(6)))
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

// FuzzEngineSchedule lets the fuzzer write the program.
func FuzzEngineSchedule(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{opSchedule, 10, opAfter, 10, opDelivery, 10, opStep, 3})
	f.Add([]byte{opMulticast, 5, 8, 200, 8, 0, 255, opStep, 2, opDelivery, 3, opStep, 15})
	f.Add([]byte{opAfter, 40, opAfter, 250, opCancel, 0, 1, opCancel, 0, 1, opStep, 1, opCancel, 0, 0})
	f.Add([]byte{opSchedule, 200, opMulticast, 3, 1, 2, 3, opStep, 1, opReset, 0, opCancel, 0, 0, opAfter, 7, opStep, 1})
	f.Add([]byte{opMulticast, 0, opMulticast, 2, 4, opStep, 9})
	f.Fuzz(func(t *testing.T, prog []byte) {
		newQueueProgram(t).run(prog)
	})
}

// BenchmarkDeepQueue measures one Step of the queue the paper's regimes
// build, which BenchmarkCancelRearmChurn and the near-empty queue of a
// stable run do not: thousands of obsolete messages — sent before TS, due
// long after — sit under the live traffic. A re-keyed multicast still sinks
// only past the live entries, but every pop sifts the far-future tail entry
// from the root to the bottom, every cancel does the same from the middle,
// and every push climbs from the bottom. The live traffic is the grid's mix:
// heartbeat timers that fan a multicast out to 19 recipients (re-keyed in
// place as each recipient is delivered) and re-arm themselves, and
// recipients that re-arm a session timer on every delivery. The pre-loaded
// entries fit a 2 MB L2 cache beside the heap, so this shows the queue's
// instruction cost; the cache misses a grid worker sees on top of it only
// show in a scenario.Grid pass.
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

// BenchmarkSortEntries is the measurement behind insertionSortMax: both
// sorts over recipient vectors of uniformly random delays.
func BenchmarkSortEntries(b *testing.B) {
	sorts := []struct {
		name string
		sort func([]multiEntry)
	}{{"insertion", insertionSortEntries}, {"heapsort", heapSortEntries}}
	for _, n := range []int{5, 17, 33, 128, 192, 256, 512} {
		rng := rand.New(rand.NewSource(1))
		vecs := make([][]multiEntry, 256)
		for k := range vecs {
			vecs[k] = make([]multiEntry, n)
			for i := range vecs[k] {
				vecs[k][i] = multiEntry{at: time.Duration(rng.Int63n(int64(10 * time.Millisecond))), seq: uint64(i), to: int32(i)}
			}
		}
		buf := make([]multiEntry, n)
		for _, s := range sorts {
			b.Run(fmt.Sprintf("%s/n=%d", s.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(buf, vecs[i%len(vecs)])
					s.sort(buf)
				}
			})
		}
	}
}
