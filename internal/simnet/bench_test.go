package simnet

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/sim"
	"repro/internal/trace"
)

// nullProc ignores everything: the benchmark measures the network and
// engine, not a protocol.
type nullProc struct{}

func (nullProc) Init(consensus.Environment)                           {}
func (nullProc) HandleMessage(consensus.ProcessID, consensus.Message) {}
func (nullProc) HandleTimer(consensus.TimerID)                        {}

// benchNetwork builds an N-process network on the given arena (nil = fresh
// storage), started and past TS so every fan-out takes the stable path.
func benchNetwork(b testing.TB, arena *Arena, n int, seed int64) (*sim.Engine, *Network) {
	b.Helper()
	var eng *sim.Engine
	if arena != nil {
		eng = arena.Engine(seed)
	} else {
		eng = sim.NewEngine(seed)
	}
	factory := func(consensus.ProcessID, int, consensus.Value) consensus.Process { return nullProc{} }
	nw, err := New(eng, Config{
		N: n, Delta: 10 * time.Millisecond,
		Collector: trace.NewCollector(), Arena: arena,
	}, factory, proposals(n))
	if err != nil {
		b.Fatal(err)
	}
	nw.Start()
	return eng, nw
}

// allToAll is one broadcast round: every process fans one message out, and
// the engine drains the deliveries.
func allToAll(eng *sim.Engine, nw *Network, n int, send func(*Node)) {
	for p := 0; p < n; p++ {
		send(nw.Node(consensus.ProcessID(p)))
	}
	eng.Run(time.Second)
}

// BenchmarkBroadcastN1000 is the tentpole A/B: one all-to-all broadcast
// round at N=1000 — every process fans one message out to every process,
// and the engine drains the resulting million deliveries. Network and
// engine construction happen outside the timed region; the measurement is
// the broadcast round itself.
//
// The unicast baseline is the pre-batching reality: one pooled heap event
// per link, so the round pushes N² entries through the priority queue —
// the engine's slot pool and heap must grow to a million entries and every
// pop sifts a million-entry heap. The batched variant is what population
// runs actually execute: arena-warm storage and one multicast slot per
// sender, so the heap never exceeds N entries and the round allocates
// nothing that grows with N (TestBroadcastRoundAllocs holds the count).
func BenchmarkBroadcastN1000(b *testing.B) {
	const n = 1000
	// Boxed once: the senders share one interface value, as a protocol
	// broadcasting a prepared message would.
	var msg consensus.Message = pingMsg{V: "x"}
	unicast := func(nd *Node) { nd.broadcastUnicast(msg) }
	batched := func(nd *Node) { nd.Broadcast(msg) }

	b.Run("unicast", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			eng, nw := benchNetwork(b, nil, n, int64(i)+1)
			b.StartTimer()
			allToAll(eng, nw, n, unicast)
		}
	})

	b.Run("batched", func(b *testing.B) {
		arena := NewArena()
		// Warm the arena as a scenario worker's first cell would.
		eng, nw := benchNetwork(b, arena, n, 1)
		allToAll(eng, nw, n, batched)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			eng, nw := benchNetwork(b, arena, n, int64(i)+1)
			b.StartTimer()
			allToAll(eng, nw, n, batched)
		}
	})
}

// TestBroadcastRoundAllocs pins the allocation columns of
// BenchmarkBroadcastN1000. Batched: one all-to-all round on an arena-warm
// network allocates 6 times, 304 bytes — the network's fresh collector
// interning the round's one message type — whatever N is (the same at
// N = 50, 100, 300 and 1000; -short runs 100); a value boxed per delivery
// would be N² more, a slot allocated per sender N more. Unicast, the
// reference the batched path is measured against: a round on fresh storage
// allocates only as the engine's slot pool and heap double (52 times at
// N=1000, 34–44 at N=100: which doublings depends on the schedule, and the
// race detector adds its own), so fewer than N times; N=100 shows that
// without a million-entry heap.
func TestBroadcastRoundAllocs(t *testing.T) {
	var msg consensus.Message = pingMsg{V: "x"}
	// round measures one all-to-all round the way the benchmark does:
	// construction outside, fan-out and drain inside.
	round := func(n int, arena *Arena, seed int64, send func(*Node)) (mallocs, bytes uint64) {
		eng, nw := benchNetwork(t, arena, n, seed)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allToAll(eng, nw, n, send)
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}

	n := 1000
	if testing.Short() {
		n = 100
	}
	batched := func(nd *Node) { nd.Broadcast(msg) }
	arena := NewArena()
	round(n, arena, 1, batched) // warm the arena as a scenario worker's first cell would
	// MemStats counts every goroutine; a stray runtime allocation cannot
	// land in both readings.
	m2, b2 := round(n, arena, 2, batched)
	m3, b3 := round(n, arena, 3, batched)
	// 334 is the measured 304 bytes plus 10 %; the race detector pads it to 320.
	if mallocs, bytes := min(m2, m3), min(b2, b3); mallocs > 6 || bytes > 334 {
		t.Errorf("batched round at N=%d: %d allocations, %d bytes; want ≤ 6, ≤ 334", n, mallocs, bytes)
	}

	if mallocs, _ := round(100, nil, 1, func(nd *Node) { nd.broadcastUnicast(msg) }); mallocs >= 100 {
		t.Errorf("unicast round at N=100: %d allocations, want fewer than N", mallocs)
	}
}

// TestDuplicateCopiesDoNotAllocate: under Duplicate{Prob: 1} a warm network
// routes a pre-TS message and broadcasts one, every copy included, without
// allocating — a policy appends copies to the network's own buffer
// (Transmission.Duplicates), not to a fresh list per message.
func TestDuplicateCopiesDoNotAllocate(t *testing.T) {
	eng := sim.NewEngine(1)
	factory := func(consensus.ProcessID, int, consensus.Value) consensus.Process { return nullProc{} }
	nw, err := New(eng, Config{
		N: 5, Delta: 10 * time.Millisecond, TS: time.Hour,
		Policy: Duplicate{Prob: 1, MaxExtra: 2}, Collector: trace.NewCollector(),
	}, factory, proposals(5))
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	var msg consensus.Message = pingMsg{V: "x"}
	nd := nw.Node(0)
	drain := func() { eng.Run(eng.Now() + time.Second) }
	route := func() { nd.Send(1, msg); drain() }
	broadcast := func() { nd.Broadcast(msg); drain() }
	route()
	broadcast()
	pings := func() int { return nw.Collector().DeliveredCounts()[0].Count } // the one type sent
	delivered := pings()
	if allocs := testing.AllocsPerRun(50, route); allocs != 0 {
		t.Errorf("route with two copies: %.1f allocations, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, broadcast); allocs != 0 {
		t.Errorf("broadcast with two copies per link: %.1f allocations, want 0", allocs)
	}
	// 51 routes and 51 broadcasts each, 3 deliveries per link.
	if got, want := pings()-delivered, 51*3+51*5*3; got != want {
		t.Errorf("delivered %d messages, want %d: copies went missing", got, want)
	}
}
