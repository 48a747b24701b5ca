package live

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/simnet"
)

// TestDelayQueueOrder pins the delivery order: deadline first, send order
// among equal deadlines.
func TestDelayQueueOrder(t *testing.T) {
	var q delayQueue
	got := make(chan consensus.ProcessID, 8)
	q.init(func(d delivery) { got <- d.from })
	defer q.close()
	// Deadlines in milliseconds past a base far enough ahead that every
	// push lands before the first is due; from labels the delivery.
	offsets := []time.Duration{3, 1, 1, 0, 2, 1, 0}
	q.mu.Lock()
	base := q.now() + 20*time.Millisecond
	for i, off := range offsets {
		q.push(delivery{at: base + off*time.Millisecond, from: consensus.ProcessID(i)})
	}
	q.mu.Unlock()
	var order []consensus.ProcessID
	for range offsets {
		select {
		case from := <-got:
			order = append(order, from)
		case <-time.After(5 * time.Second):
			t.Fatalf("delivered %v, then nothing", order)
		}
	}
	if fmt.Sprint(order) != "[3 6 1 2 5 4 0]" {
		t.Fatalf("delivery order %v, want [3 6 1 2 5 4 0]", order)
	}
}

// TestDelayQueueCloseWaitsForDelivery pins Close against a delivery in
// progress: Close returns only once that handler has, and the deliveries
// still pending are dropped.
func TestDelayQueueCloseWaitsForDelivery(t *testing.T) {
	tr := NewMemTransport(MemTransportConfig{MaxDelay: time.Millisecond})
	entered, release := make(chan struct{}, 8), make(chan struct{})
	tr.Register(1, func(consensus.ProcessID, consensus.Message) {
		entered <- struct{}{}
		<-release
	})
	for i := 0; i < 8; i++ {
		tr.Send(0, 1, note(i))
	}
	<-entered
	closed := make(chan struct{})
	go func() {
		_ = tr.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a delivery was in progress")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-closed
	if n := len(entered); n != 0 {
		t.Fatalf("%d deliveries after the one Close waited for, want 0", n)
	}
}

// TestDelayQueueHoldsNoIdleGoroutine pins the queue's goroutine to the time
// deliveries are pending, on both transports that delay: it is gone once the
// queue drains without a Close, and once Close drops what is pending.
func TestDelayQueueHoldsNoIdleGoroutine(t *testing.T) {
	settles := func(what string, baseline int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > baseline {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, baseline %d", what, runtime.NumGoroutine(), baseline)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for _, kind := range []string{"mem", "policy"} {
		build := func(delay time.Duration) Transport {
			if kind == "mem" {
				return NewMemTransport(MemTransportConfig{MaxDelay: delay})
			}
			return NewPolicyTransport(NewMemTransport(MemTransportConfig{}),
				PolicyTransportConfig{Policy: simnet.Chaos{MaxDelay: delay}, TS: time.Hour})
		}
		baseline := runtime.NumGoroutine()
		delivered := make(chan struct{}, 64)
		tr := build(2 * time.Millisecond)
		tr.Register(1, func(consensus.ProcessID, consensus.Message) { delivered <- struct{}{} })
		for i := 0; i < 64; i++ {
			tr.Send(0, 1, note(i))
		}
		for i := 0; i < 64; i++ {
			<-delivered
		}
		settles(kind+", drained", baseline)

		tr = build(time.Hour)
		tr.Register(1, func(consensus.ProcessID, consensus.Message) { t.Error("delivered an hour early") })
		for i := 0; i < 64; i++ {
			tr.Send(0, 1, note(i))
		}
		var q *delayQueue
		switch tr := tr.(type) {
		case *MemTransport:
			q = &tr.q
		case *PolicyTransport:
			q = &tr.q
		}
		q.mu.Lock()
		serving := q.serving
		q.mu.Unlock()
		if !serving {
			t.Fatalf("%s: no goroutine serves 64 pending deliveries", kind)
		}
		_ = tr.Close()
		settles(kind+", closed", baseline)
	}
}

// TestDelayQueueDeliveryAllocs holds a delayed message at zero allocations on
// a warm transport: a MemTransport Send through to its handler, and a
// pre-TS PolicyTransport Send under Chaos through to the inner handler.
func TestDelayQueueDeliveryAllocs(t *testing.T) {
	var m consensus.Message = note(0)
	handled := make(chan struct{}, 1)
	handler := func(consensus.ProcessID, consensus.Message) { handled <- struct{}{} }

	mem := NewMemTransport(MemTransportConfig{MaxDelay: 50 * time.Microsecond})
	defer func() { _ = mem.Close() }()
	mem.Register(1, handler)
	if got := testing.AllocsPerRun(200, func() {
		mem.Send(0, 1, m)
		<-handled
	}); got != 0 {
		t.Errorf("MemTransport: %v allocations per delayed message, want 0", got)
	}

	pt := NewPolicyTransport(NewMemTransport(MemTransportConfig{}), PolicyTransportConfig{
		Policy: simnet.Chaos{MaxDelay: 50 * time.Microsecond},
		TS:     time.Hour,
		Delta:  time.Millisecond,
	})
	defer func() { _ = pt.Close() }()
	pt.Register(1, handler)
	if got := testing.AllocsPerRun(200, func() {
		pt.Send(0, 1, m)
		<-handled
	}); got != 0 {
		t.Errorf("PolicyTransport under Chaos: %v allocations per pre-TS message, want 0", got)
	}
}
