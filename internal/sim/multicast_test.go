package sim

import (
	"math/rand"
	"testing"
	"time"
)

// deliv is one sink invocation with its full context.
type deliv struct {
	at       time.Duration
	from, to int32
	aux      int64
	pending  int
}

// fanoutTrace drives a randomized workload of fan-outs interleaved with
// unicast deliveries and timers, using either multicasts or the equivalent
// per-recipient ScheduleDelivery loop, and returns every sink invocation.
// Both variants draw delays from the same seeded RNG in the same order, so
// equal traces mean the schedules are byte-identical.
func fanoutTrace(batched bool) []deliv {
	e := NewEngine(1)
	var got []deliv
	e.SetDeliverySink(func(from, to int32, aux int64, payload any) {
		got = append(got, deliv{at: e.Now(), from: from, to: to, aux: aux, pending: e.Pending()})
	})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		from := int32(i % 5)
		fanout := 1 + rng.Intn(12)
		if batched {
			mc := e.BeginMulticast(from, int64(i), "payload", fanout)
			for r := 0; r < fanout; r++ {
				mc.Add(int32(r), e.Now()+time.Duration(rng.Intn(1000))*time.Microsecond)
			}
			mc.Commit()
		} else {
			for r := 0; r < fanout; r++ {
				e.ScheduleDelivery(e.Now()+time.Duration(rng.Intn(1000))*time.Microsecond, from, int32(r), int64(i), "payload")
			}
		}
		// A plain unicast and a timer interleaved with every fan-out, so
		// multicast re-keying competes with ordinary heap entries.
		e.ScheduleDelivery(e.Now()+time.Duration(rng.Intn(1000))*time.Microsecond, 99, 1, -1, "unicast")
		e.After(time.Duration(rng.Intn(500))*time.Microsecond, func() {})
		// Advance partway so later fan-outs overlap in-flight ones.
		e.Run(time.Duration(rng.Intn(300)) * time.Microsecond)
	}
	e.Run(time.Hour)
	return got
}

// TestMulticastMatchesUnicastSchedule checks the engine-level equivalence:
// a multicast's expanded deliveries are indistinguishable — times,
// sequence-derived order, sink arguments, and instantaneous queue depth —
// from the per-recipient unicast loop it replaces.
func TestMulticastMatchesUnicastSchedule(t *testing.T) {
	got := fanoutTrace(true)
	want := fanoutTrace(false)
	if len(got) == 0 {
		t.Fatal("no deliveries recorded")
	}
	if len(got) != len(want) {
		t.Fatalf("batched delivered %d, unicast %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery %d diverges: batched %+v, unicast %+v", i, got[i], want[i])
		}
	}
}

// TestMulticastPendingCountsRecipients checks Pending() counts every
// undelivered recipient individually, exactly as the unicast schedule
// would — including mid-fan-out.
func TestMulticastPendingCountsRecipients(t *testing.T) {
	e := NewEngine(1)
	e.SetDeliverySink(func(int32, int32, int64, any) {})
	mc := e.BeginMulticast(0, 0, "m", 3)
	mc.Add(1, time.Millisecond)
	mc.Add(2, 2*time.Millisecond)
	mc.Add(3, 3*time.Millisecond)
	mc.Commit()
	for want := 3; want > 0; want-- {
		if p := e.Pending(); p != want {
			t.Fatalf("Pending() = %d, want %d", p, want)
		}
		if !e.Step() {
			t.Fatal("queue drained early")
		}
	}
	if p := e.Pending(); p != 0 {
		t.Fatalf("Pending() = %d after drain, want 0", p)
	}
}

// TestEmptyMulticastSchedulesNothing: a fan-out whose every recipient was
// dropped must leave no trace — no queue entry, no pending count, and its
// slot, which no delivery will ever recycle, immediately reusable.
func TestEmptyMulticastSchedulesNothing(t *testing.T) {
	e := NewEngine(1)
	e.SetDeliverySink(func(int32, int32, int64, any) {})
	mc := e.BeginMulticast(0, 0, "m", 8)
	mc.Commit()
	if p := e.Pending(); p != 0 {
		t.Fatalf("Pending() = %d after empty commit, want 0", p)
	}
	if e.Step() {
		t.Fatal("Step executed something after an empty multicast")
	}
	if e.slots[mc.si].payload != nil {
		t.Fatal("the empty multicast's slot still pins its payload")
	}
	if again := e.BeginMulticast(0, 0, "m", 8); again.si != mc.si {
		t.Fatalf("next fan-out took slot %d, want the empty multicast's slot %d back", again.si, mc.si)
	}
}

// TestBeginMulticastWithoutSinkPanics mirrors ScheduleDelivery's contract.
func TestBeginMulticastWithoutSinkPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("BeginMulticast without a sink should panic")
		}
	}()
	e.BeginMulticast(0, 0, "m", 1)
}

// TestResetEngineMatchesFreshEngine: an engine reused via Reset must
// produce the same trace as a freshly constructed one — the arena reuse
// guarantee.
func TestResetEngineMatchesFreshEngine(t *testing.T) {
	fresh := fanoutTrace(true)
	e := NewEngine(999)
	// Dirty the engine with an unrelated partial workload.
	e.SetDeliverySink(func(int32, int32, int64, any) {})
	mc := e.BeginMulticast(5, 5, "x", 4)
	mc.Add(0, time.Millisecond)
	mc.Add(1, time.Millisecond)
	mc.Commit()
	e.ScheduleDelivery(time.Millisecond, 1, 2, 3, "y")
	e.Step()
	e.Reset(1)

	// Replay fanoutTrace's exact workload on the reused engine.
	var got []deliv
	e.SetDeliverySink(func(from, to int32, aux int64, payload any) {
		got = append(got, deliv{at: e.Now(), from: from, to: to, aux: aux, pending: e.Pending()})
	})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		from := int32(i % 5)
		fanout := 1 + rng.Intn(12)
		mc := e.BeginMulticast(from, int64(i), "payload", fanout)
		for r := 0; r < fanout; r++ {
			mc.Add(int32(r), e.Now()+time.Duration(rng.Intn(1000))*time.Microsecond)
		}
		mc.Commit()
		e.ScheduleDelivery(e.Now()+time.Duration(rng.Intn(1000))*time.Microsecond, 99, 1, -1, "unicast")
		e.After(time.Duration(rng.Intn(500))*time.Microsecond, func() {})
		e.Run(time.Duration(rng.Intn(300)) * time.Microsecond)
	}
	e.Run(time.Hour)

	if len(got) != len(fresh) {
		t.Fatalf("reset engine delivered %d, fresh %d", len(got), len(fresh))
	}
	for i := range fresh {
		if got[i] != fresh[i] {
			t.Fatalf("delivery %d diverges: reset %+v, fresh %+v", i, got[i], fresh[i])
		}
	}
}
