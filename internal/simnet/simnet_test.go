package simnet

import (
	"math"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core/consensus"
	"repro/internal/sim"
)

// echoMsg is a trivial test message.
type echoMsg struct{ Hop int }

func (echoMsg) Type() string { return "echo" }

// pingMsg triggers a decision at the recipient.
type pingMsg struct{ V consensus.Value }

func (pingMsg) Type() string { return "ping" }

// testProc is a minimal protocol used to exercise the substrate: process 0
// broadcasts its proposal once started; every process decides on the first
// ping it receives, and also re-broadcasts once.
type testProc struct {
	id       consensus.ProcessID
	proposal consensus.Value
	env      consensus.Environment
	sent     bool
}

func newTestFactory() consensus.Factory {
	return func(id consensus.ProcessID, n int, proposal consensus.Value) consensus.Process {
		return &testProc{id: id, proposal: proposal}
	}
}

func (p *testProc) Init(env consensus.Environment) {
	p.env = env
	// Recover "already decided" from stable storage.
	var v consensus.Value
	if ok, _ := env.Store().Get("decided", &v); ok {
		env.Decide(v)
		p.sent = true
		return
	}
	if p.id == 0 {
		env.Broadcast(pingMsg{V: p.proposal})
	}
	// Retry broadcast until decided, to survive pre-TS loss.
	env.SetTimer(1, 50*time.Millisecond)
}

func (p *testProc) HandleMessage(from consensus.ProcessID, m consensus.Message) {
	if ping, ok := m.(pingMsg); ok {
		if err := p.env.Store().Put("decided", ping.V); err != nil {
			p.env.Logf("store: %v", err)
			return
		}
		p.env.Decide(ping.V)
		if !p.sent {
			p.sent = true
			p.env.Broadcast(pingMsg{V: ping.V})
		}
	}
}

func (p *testProc) HandleTimer(id consensus.TimerID) {
	if p.id == 0 && !p.sent {
		p.env.Broadcast(pingMsg{V: p.proposal})
		p.env.SetTimer(1, 50*time.Millisecond)
	}
}

func proposals(n int) []consensus.Value {
	out := make([]consensus.Value, n)
	for i := range out {
		out[i] = consensus.Value("v0")
	}
	return out
}

func build(t *testing.T, cfg Config) (*sim.Engine, *Network) {
	t.Helper()
	eng := sim.NewEngine(1)
	nw, err := New(eng, cfg, newTestFactory(), proposals(cfg.N))
	if err != nil {
		t.Fatal(err)
	}
	return eng, nw
}

func TestSynchronousDeliveryWithinDelta(t *testing.T) {
	delta := 10 * time.Millisecond
	eng, nw := build(t, Config{N: 5, Delta: delta, TS: 0})
	nw.Start()
	ok, err := nw.RunUntilAllDecided(time.Second)
	if err != nil {
		t.Fatalf("safety violation: %v", err)
	}
	if !ok {
		t.Fatal("cluster did not decide")
	}
	// All decisions must land within 2δ: one hop ping from process 0.
	for _, id := range nw.AllIDs() {
		at, decided := nw.Node(id).DecidedAtGlobal()
		if !decided {
			t.Fatalf("process %d undecided", id)
		}
		if at > 2*delta {
			t.Fatalf("process %d decided at %v, want ≤ 2δ=%v", id, at, 2*delta)
		}
	}
	if eng.Now() > time.Second {
		t.Fatalf("simulation overran: %v", eng.Now())
	}
}

func TestDropAllBlocksUntilTS(t *testing.T) {
	delta := 10 * time.Millisecond
	ts := 500 * time.Millisecond
	_, nw := build(t, Config{N: 3, Delta: delta, TS: ts, Policy: DropAll{}})
	nw.Start()
	ok, err := nw.RunUntilAllDecided(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("cluster did not decide after TS")
	}
	for _, id := range nw.AllIDs() {
		at, _ := nw.Node(id).DecidedAtGlobal()
		if at < ts {
			t.Fatalf("process %d decided at %v, before TS=%v despite DropAll", id, at, ts)
		}
	}
}

func TestTimerRearmDoesNotBloatEventQueue(t *testing.T) {
	// Protocols that re-arm a timer on every message (modpaxos's session
	// timer) cancel the previous event each SetTimer; the canceled events
	// must leave the engine's heap immediately, or Pending lies and the
	// queue grows with the churn.
	eng, nw := build(t, Config{N: 3, Delta: 10 * time.Millisecond})
	node := nw.Node(0)
	for i := 0; i < 1000; i++ {
		node.SetTimer(1, 50*time.Millisecond)
	}
	if p := eng.Pending(); p != 1 {
		t.Fatalf("engine has %d pending events after 1000 re-arms of one timer, want 1", p)
	}
}

func TestCrashedProcessDropsMessagesAndTimers(t *testing.T) {
	delta := 10 * time.Millisecond
	_, nw := build(t, Config{N: 3, Delta: delta, TS: 0})
	nw.Start()
	nw.CrashAt(2, 1*time.Millisecond) // crash before the ping lands
	ok, err := nw.RunUntilAllDecided(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("up processes did not decide")
	}
	if _, decided := nw.Node(2).Decided(); decided {
		t.Fatal("crashed process decided")
	}
	if nw.Up(2) {
		t.Fatal("process 2 should be down")
	}
	if got := len(nw.UpIDs()); got != 2 {
		t.Fatalf("UpIDs = %d processes, want 2", got)
	}
}

func TestRestartRecoversFromStableStorage(t *testing.T) {
	delta := 10 * time.Millisecond
	eng, nw := build(t, Config{N: 3, Delta: delta, TS: 0})
	nw.Start()
	ok, err := nw.RunUntilAllDecided(time.Second)
	if err != nil || !ok {
		t.Fatalf("initial decide failed: ok=%v err=%v", ok, err)
	}
	decideTime := eng.Now()

	nw.CrashAt(1, decideTime+10*time.Millisecond)
	nw.RestartAt(1, decideTime+50*time.Millisecond)
	eng.Run(decideTime + 100*time.Millisecond)

	if !nw.Up(1) {
		t.Fatal("process 1 should be up after restart")
	}
	v, decided := nw.Node(1).Decided()
	if !decided || v != "v0" {
		t.Fatalf("restarted process lost its decision: %q %v", v, decided)
	}
	if nw.Node(1).CrashCount() != 1 {
		t.Fatalf("CrashCount = %d, want 1", nw.Node(1).CrashCount())
	}
	if err := nw.Checker().Violation(); err != nil {
		t.Fatalf("restart caused safety violation: %v", err)
	}
}

func TestStartExceptKeepsProcessesDown(t *testing.T) {
	_, nw := build(t, Config{N: 5, Delta: 10 * time.Millisecond, TS: 0})
	nw.StartExcept(3, 4)
	if nw.Up(3) || nw.Up(4) {
		t.Fatal("excluded processes should be down")
	}
	if !nw.Up(0) || !nw.Up(1) || !nw.Up(2) {
		t.Fatal("non-excluded processes should be up")
	}
}

func TestInjectDeliversAtExactTime(t *testing.T) {
	eng, nw := build(t, Config{N: 3, Delta: 10 * time.Millisecond, TS: 0})
	// Only start process 2 so nothing else delivers pings.
	nw.StartExcept(0, 1)
	nw.Inject(123*time.Millisecond, 0, 2, pingMsg{V: "v0"})
	eng.Run(time.Second)
	at, decided := nw.Node(2).DecidedAtGlobal()
	if !decided || at != 123*time.Millisecond {
		t.Fatalf("inject decided=%v at=%v, want decision exactly at 123ms", decided, at)
	}
}

func TestTimersFollowLocalClocks(t *testing.T) {
	// A process with a 25% fast clock must fire a 100ms timer after only
	// 80ms of global time.
	eng := sim.NewEngine(1)
	cfg := Config{
		N: 1, Delta: 10 * time.Millisecond, TS: 0,
		Drift: func(consensus.ProcessID) clock.Drift { return clock.WithRate(1.25) },
	}
	var firedAt time.Duration
	factory := func(id consensus.ProcessID, n int, proposal consensus.Value) consensus.Process {
		return &timerProbe{firedAt: &firedAt, eng: eng}
	}
	nw, err := New(eng, cfg, factory, proposals(1))
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	eng.Run(time.Second)
	want := 80 * time.Millisecond
	if diff := firedAt - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Fatalf("timer fired at global %v, want ~%v", firedAt, want)
	}
}

type timerProbe struct {
	firedAt *time.Duration
	eng     *sim.Engine
}

func (p *timerProbe) Init(env consensus.Environment) { env.SetTimer(1, 100*time.Millisecond) }
func (p *timerProbe) HandleMessage(consensus.ProcessID, consensus.Message) {
}
func (p *timerProbe) HandleTimer(consensus.TimerID) { *p.firedAt = p.eng.Now() }

func TestConfigValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	bad := []Config{
		{N: 0, Delta: time.Millisecond},
		{N: 3, Delta: 0},
		{N: 3, Delta: time.Millisecond, TS: -1},
		{N: 3, Delta: time.Millisecond, MinDelay: 2 * time.Millisecond},
		{N: 3, Delta: time.Millisecond, Rho: 1.5},
		{N: 3, Delta: time.Millisecond, Rho: math.NaN()},
	}
	for i, cfg := range bad {
		if _, err := New(eng, cfg, newTestFactory(), proposals(cfg.N)); err == nil {
			t.Errorf("config %d should be rejected: %+v", i, cfg)
		}
	}
	if _, err := New(eng, Config{N: 3, Delta: time.Millisecond}, newTestFactory(), proposals(2)); err == nil {
		t.Error("proposal count mismatch should be rejected")
	}
}

func TestDriftSpreadAcrossRho(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := Config{N: 5, Delta: time.Millisecond, Rho: 0.05}
	nw, err := New(eng, cfg, newTestFactory(), proposals(5))
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 slowest, node 4 fastest, all within [1−ρ, 1+ρ].
	slow := nw.Node(0).Now()
	_ = slow
	g := 100 * time.Millisecond
	eng.Schedule(g, func() {})
	eng.Run(g)
	lo := nw.Node(0).Now()
	hi := nw.Node(4).Now()
	if lo >= hi {
		t.Fatalf("expected clock spread, got lo=%v hi=%v", lo, hi)
	}
	if lo < time.Duration(float64(g)*0.95) || hi > time.Duration(float64(g)*1.05)+time.Microsecond {
		t.Fatalf("clocks outside ρ band: lo=%v hi=%v", lo, hi)
	}
}

func TestChaosPolicyStatistics(t *testing.T) {
	// With heavy drop probability, most pre-TS messages are lost but the
	// cluster still decides after TS.
	delta := 10 * time.Millisecond
	ts := 300 * time.Millisecond
	_, nw := build(t, Config{
		N: 3, Delta: delta, TS: ts,
		Policy: Chaos{DropProb: 0.9},
	})
	nw.Start()
	ok, err := nw.RunUntilAllDecided(3 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("cluster did not decide under chaos")
	}
	if nw.Collector().TotalDropped() == 0 {
		t.Fatal("chaos policy dropped nothing (suspicious)")
	}
}

func TestPartitionPolicy(t *testing.T) {
	groups := map[consensus.ProcessID]int{0: 0, 1: 0, 2: 1}
	p := Partition{Group: groups}
	tx := Transmission{From: 0, To: 2, Delta: time.Millisecond, TS: time.Second}
	if f := p.Fate(tx, sim.NewEngine(1).Rand()); !f.Drop {
		t.Fatal("cross-partition message should drop")
	}
	tx.To = 1
	if f := p.Fate(tx, sim.NewEngine(1).Rand()); f.Drop {
		t.Fatal("same-partition message should pass")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (time.Duration, int) {
		eng := sim.NewEngine(42)
		nw, err := New(eng, Config{N: 5, Delta: 10 * time.Millisecond, TS: 200 * time.Millisecond, Policy: Chaos{DropProb: 0.5}}, newTestFactory(), proposals(5))
		if err != nil {
			t.Fatal(err)
		}
		nw.Start()
		if _, err := nw.RunUntilAllDecided(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		last, _ := nw.Checker().LastDecisionAmong(nw.AllIDs())
		return last, nw.Collector().TotalSent()
	}
	t1, m1 := run()
	t2, m2 := run()
	if t1 != t2 || m1 != m2 {
		t.Fatalf("identical seeds diverged: (%v,%d) vs (%v,%d)", t1, m1, t2, m2)
	}
}

func TestSparseTimerIDsStayBounded(t *testing.T) {
	// The RSM multiplexes per-slot timers into unbounded ID blocks
	// (slot*timersPerSlot + id). Those must not size the dense per-node
	// timer table: large IDs take the sparse map, which holds only live
	// timers, and they must still fire and cancel correctly.
	eng, nw := build(t, Config{N: 1, Delta: 10 * time.Millisecond})
	node := nw.Node(0)

	// March through ever-growing IDs, canceling each before arming the
	// next — the RSM's advancing-slot shape.
	for slot := 0; slot < 1000; slot++ {
		id := consensus.TimerID(slot*8 + 1)
		node.SetTimer(id, 50*time.Millisecond)
		node.CancelTimer(id)
	}
	if got := len(node.timers); got > denseTimerCap {
		t.Fatalf("dense timer table grew to %d entries under sparse IDs, cap is %d", got, denseTimerCap)
	}
	if got := len(node.timersXL); got != 0 {
		t.Fatalf("sparse timer map holds %d entries after cancels, want 0", got)
	}
	if p := eng.Pending(); p != 0 {
		t.Fatalf("engine has %d pending events after all cancels, want 0", p)
	}

	// A sparse timer re-arms (replacing the pending one) and fires.
	node.SetTimer(9999, time.Hour)
	node.SetTimer(9999, 10*time.Millisecond)
	if p := eng.Pending(); p != 1 {
		t.Fatalf("re-arming a sparse timer left %d events pending, want 1", p)
	}
	fired := false
	node.up = true
	node.proc = timerRecorder{onTimer: func(id consensus.TimerID) {
		if id == 9999 {
			fired = true
		}
	}}
	eng.Run(time.Second)
	if !fired {
		t.Fatal("sparse timer did not fire")
	}
	if got := len(node.timersXL); got != 0 {
		t.Fatalf("sparse timer map holds %d entries after firing, want 0", got)
	}
}

// timerRecorder is a minimal Process capturing HandleTimer calls.
type timerRecorder struct{ onTimer func(consensus.TimerID) }

func (timerRecorder) Init(consensus.Environment)                           {}
func (timerRecorder) HandleMessage(consensus.ProcessID, consensus.Message) {}
func (r timerRecorder) HandleTimer(id consensus.TimerID)                   { r.onTimer(id) }
