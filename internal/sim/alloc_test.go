package sim

import (
	"testing"
	"time"
)

// TestScheduleCancelChurnIsAllocFree pins the zero-alloc invariant of the
// engine's hottest edge: the SetTimer pattern (cancel the previous event,
// schedule a replacement). After warm-up the free list and heap capacity
// absorb all churn, so the steady state must not allocate at all.
func TestScheduleCancelChurnIsAllocFree(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	ev := e.After(time.Millisecond, fn) // warm up slot storage and heap capacity
	allocs := testing.AllocsPerRun(1000, func() {
		ev.Cancel()
		ev = e.After(time.Millisecond, fn)
	})
	if allocs != 0 {
		t.Fatalf("schedule/cancel churn allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestStepIsAllocFree pins the zero-alloc invariant of the execute path: a
// self-rescheduling event (the shape of every protocol timer and heartbeat)
// must drive Step without allocating.
func TestStepIsAllocFree(t *testing.T) {
	e := NewEngine(1)
	var tick func()
	tick = func() { e.After(time.Millisecond, tick) }
	e.After(0, tick)
	e.Step() // warm up
	allocs := testing.AllocsPerRun(1000, func() {
		if !e.Step() {
			t.Fatal("queue unexpectedly drained")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Step allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestScheduleDeliveryIsAllocFree pins the zero-alloc invariant of the
// payload path: scheduling and delivering a message through the sink must
// not allocate once a payload exists (the payload itself is the caller's;
// here it is boxed once outside the loop).
func TestScheduleDeliveryIsAllocFree(t *testing.T) {
	e := NewEngine(1)
	delivered := 0
	e.SetDeliverySink(func(from, to int32, aux int64, payload any) { delivered++ })
	var payload any = struct{ x int }{42} // boxed once, reused
	e.ScheduleDelivery(0, 0, 1, 7, payload)
	e.Step() // warm up
	allocs := testing.AllocsPerRun(1000, func() {
		e.ScheduleDelivery(e.Now(), 0, 1, 7, payload)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("delivery round-trip allocated %.1f allocs/op, want 0", allocs)
	}
	if delivered < 1000 {
		t.Fatalf("sink saw %d deliveries", delivered)
	}
}

// TestDeliverySinkReceivesPayload checks the sink is invoked with exactly
// the scheduled arguments, in schedule order for simultaneous deliveries.
func TestDeliverySinkReceivesPayload(t *testing.T) {
	e := NewEngine(1)
	type rec struct {
		from, to int32
		aux      int64
		payload  any
	}
	var got []rec
	e.SetDeliverySink(func(from, to int32, aux int64, payload any) {
		got = append(got, rec{from, to, aux, payload})
	})
	e.ScheduleDelivery(2*time.Millisecond, 3, 4, 99, "late")
	e.ScheduleDelivery(time.Millisecond, 1, 2, 7, "early")
	e.Run(time.Second)
	want := []rec{{1, 2, 7, "early"}, {3, 4, 99, "late"}}
	if len(got) != len(want) {
		t.Fatalf("sink saw %d deliveries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestSecondSinkRegistrationPanics: one sink owner per engine.
func TestSecondSinkRegistrationPanics(t *testing.T) {
	e := NewEngine(1)
	e.SetDeliverySink(func(int32, int32, int64, any) {})
	defer func() {
		if recover() == nil {
			t.Fatal("second SetDeliverySink should panic")
		}
	}()
	e.SetDeliverySink(func(int32, int32, int64, any) {})
}

// TestBatchedBroadcastIsAllocFree pins the zero-alloc invariant of the
// multicast fast path end to end: beginning a fan-out, adding every
// recipient, committing, and stepping all deliveries through the sink must
// not allocate once the slot pool and recipient-vector pool are warm.
func TestBatchedBroadcastIsAllocFree(t *testing.T) {
	const fanout = 64
	e := NewEngine(1)
	delivered := 0
	e.SetDeliverySink(func(from, to int32, aux int64, payload any) { delivered++ })
	var payload any = struct{ x int }{42} // boxed once, reused
	round := func() {
		mc := e.BeginMulticast(0, 7, payload, fanout)
		for i := 0; i < fanout; i++ {
			mc.Add(int32(i), e.Now()+time.Duration(i)*time.Microsecond)
		}
		mc.Commit()
		for e.Step() {
		}
	}
	round() // warm up slot, heap, and vector pools
	allocs := testing.AllocsPerRun(1000, round)
	if allocs != 0 {
		t.Fatalf("batched broadcast round allocated %.1f allocs/op, want 0", allocs)
	}
	if delivered < 1000*fanout {
		t.Fatalf("sink saw %d deliveries", delivered)
	}
}

// TestResetIsAllocFree pins the arena path: resetting a warm engine and
// refilling it — what a scenario worker does between two cells — allocates
// nothing, the re-seeded random source included.
func TestResetIsAllocFree(t *testing.T) {
	e := NewEngine(1)
	sink := func(from, to int32, aux int64, payload any) {}
	fn := func() {}
	var payload any = struct{ x int }{42}
	fill := func() {
		e.SetDeliverySink(sink)
		for i := 0; i < 64; i++ {
			e.After(time.Duration(e.Rand().Intn(1000))*time.Microsecond, fn)
		}
		mc := e.BeginMulticast(0, 7, payload, 8)
		for i := 0; i < 8; i++ {
			mc.Add(int32(i), time.Duration(i)*time.Microsecond)
		}
		mc.Commit()
		for i := 0; i < 16; i++ {
			e.Step()
		}
	}
	fill() // warm up slot, heap, and vector pools
	seed := int64(1)
	allocs := testing.AllocsPerRun(100, func() {
		seed++
		e.Reset(seed)
		fill()
	})
	if allocs != 0 {
		t.Fatalf("Reset + refill allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestResetCostFollowsTheLastRun: an arena engine that once hosted a run
// with tens of thousands of events in flight must not pay for it at every
// later reset. Only slots handed out since the previous reset are revisited
// (their generation is what moves).
func TestResetCostFollowsTheLastRun(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 1000; i++ {
		e.After(time.Millisecond, func() {})
	}
	e.Reset(2)
	first, last := e.slots[0].gen, e.slots[999].gen
	stale := e.After(time.Millisecond, func() {}) // a small run: slot 0 only
	e.Reset(3)
	if e.slots[0].gen == first {
		t.Fatal("Reset left the generation of a slot it had handed out: stale handles would stay live")
	}
	if stale.Pending() {
		t.Fatal("handle survived Reset")
	}
	if e.slots[999].gen != last {
		t.Fatal("Reset revisited a slot that was not handed out since the previous reset")
	}
}
