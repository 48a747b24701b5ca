package live

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/core/modpaxos"
	"repro/internal/protocol"
	"repro/internal/simnet"
	"repro/internal/trace"

	// The registry's built-in protocols; this package itself takes a
	// consensus.Factory and never resolves a name.
	_ "repro/internal/protocol/all"
)

const delta = 20 * time.Millisecond

// factory resolves a protocol factory through the registry — the same path
// the live CLIs use.
func factory(t *testing.T, name string, d time.Duration) consensus.Factory {
	t.Helper()
	desc, err := protocol.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	f, err := desc.Build(protocol.Params{Delta: d})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func distinctProposals(n int) []consensus.Value {
	out := make([]consensus.Value, n)
	for i := range out {
		out[i] = consensus.Value(fmt.Sprintf("v%d", i))
	}
	return out
}

func TestModifiedPaxosLiveMemoryTransport(t *testing.T) {
	c, err := NewCluster(Config{N: 5, Delta: delta},
		factory(t, "modpaxos", delta), distinctProposals(5))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.Stop(); err != nil {
			t.Errorf("Stop: %v", err)
		}
	}()
	c.Start()
	if err := c.WaitAllDecided(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Checker().Violation(); err != nil {
		t.Fatal(err)
	}
}

func TestModifiedPaxosLiveWithUnstablePeriod(t *testing.T) {
	// Real-time eventual synchrony: 300ms of 60% loss and long delays,
	// then a stable network. The cluster must decide shortly after
	// stabilization.
	transport := NewPolicyTransport(NewMemTransport(MemTransportConfig{MaxDelay: delta}),
		PolicyTransportConfig{Policy: simnet.Chaos{DropProb: 0.6}, TS: 300 * time.Millisecond, Delta: delta})
	c, err := NewCluster(Config{N: 5, Delta: delta, Transport: transport},
		factory(t, "modpaxos", delta), distinctProposals(5))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Stop() }()
	start := time.Now()
	c.Start()
	if err := c.WaitAllDecided(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// Generous real-time envelope: stabilization + bound (~18δ) + sched
	// noise. This is a smoke bound, not a timing assertion.
	if elapsed > 300*time.Millisecond+40*delta {
		t.Logf("note: live decision took %v (scheduling noise)", elapsed)
	}
}

func TestRoundBasedLive(t *testing.T) {
	c, err := NewCluster(Config{N: 3, Delta: delta},
		factory(t, "roundbased", delta), distinctProposals(3))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Stop() }()
	c.Start()
	if err := c.WaitAllDecided(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestBConsensusLive(t *testing.T) {
	c, err := NewCluster(Config{N: 3, Delta: delta},
		factory(t, "bconsensus", delta), distinctProposals(3))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Stop() }()
	c.Start()
	if err := c.WaitAllDecided(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestLiveCrashRestartRecovers(t *testing.T) {
	if testing.Short() {
		// The crash phase deliberately lets WaitAllDecided run out its
		// full 10s timeout; keep that out of the fast loop (CI runs the
		// suite without -short).
		t.Skip("skipping ~10s crash/restart wall-clock test in -short mode")
	}
	c, err := NewCluster(Config{N: 5, Delta: delta},
		factory(t, "modpaxos", delta), distinctProposals(5))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Stop() }()
	c.Start()
	c.Crash(4)
	if err := c.WaitAllDecided(10 * time.Second); err == nil {
		t.Fatal("WaitAllDecided should fail with process 4 down")
	} else if err := c.Checker().Violation(); err != nil {
		t.Fatal(err)
	}
	// Majority decides without process 4.
	ids := []consensus.ProcessID{0, 1, 2, 3}
	deadline := time.Now().Add(10 * time.Second)
	for !c.Checker().AllDecided(ids) {
		if time.Now().After(deadline) {
			t.Fatalf("majority undecided (%d/5)", c.Checker().DecidedCount())
		}
		time.Sleep(time.Millisecond)
	}
	// Process 4 restarts and catches up via decision gossip.
	c.Restart(4)
	v, err := c.WaitDecided(4, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := c.Checker().DecisionOf(0); d.Value != v {
		t.Fatalf("restarted decision %q differs from cluster's %q", v, d.Value)
	}
}

// TestLiveTCPTransport takes every kind of live-capable protocol to a
// decision over loopback sockets: each message type it sends has crossed
// the wire through its codec, so a codec that round-trips but writes the
// wrong field fails a run here. usd stands for the dynamics family, whose
// four rules share one message set; a dynamics decision is a streak of
// unanimous samples, so its population starts agreed where the others must
// choose.
func TestLiveTCPTransport(t *testing.T) {
	agreed := []consensus.Value{"v", "v", "v"}
	for name, proposals := range map[string][]consensus.Value{
		"modpaxos":        distinctProposals(3),
		"modpaxos-norule": distinctProposals(3),
		"roundbased":      distinctProposals(3),
		"bconsensus":      distinctProposals(3),
		"usd":             agreed,
	} {
		t.Run(name, func(t *testing.T) {
			ids := []consensus.ProcessID{0, 1, 2}
			transport, err := NewTCPTransport(ids)
			if err != nil {
				t.Fatal(err)
			}
			c, err := NewCluster(Config{N: 3, Delta: delta, Transport: transport},
				factory(t, name, delta), proposals)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := c.Stop(); err != nil {
					t.Errorf("Stop: %v", err)
				}
			}()
			for _, id := range ids {
				if transport.Addr(id) == "" {
					t.Fatalf("no listen address for %d", id)
				}
			}
			c.Start()
			if err := c.WaitAllDecided(15 * time.Second); err != nil {
				t.Fatal(err)
			}
			if err := c.Checker().Violation(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestClusterConfigValidation(t *testing.T) {
	f := factory(t, "modpaxos", delta)
	if _, err := NewCluster(Config{N: 0, Delta: delta}, f, nil); err == nil {
		t.Error("N=0 should be rejected")
	}
	if _, err := NewCluster(Config{N: 3, Delta: 0}, f, distinctProposals(3)); err == nil {
		t.Error("Delta=0 should be rejected")
	}
	if _, err := NewCluster(Config{N: 3, Delta: delta}, f, distinctProposals(2)); err == nil {
		t.Error("proposal mismatch should be rejected")
	}
}

func TestMemTransportCloseStopsDeliveries(t *testing.T) {
	tr := NewMemTransport(MemTransportConfig{MaxDelay: 50 * time.Millisecond})
	got := make(chan consensus.Message, 16)
	tr.Register(1, func(_ consensus.ProcessID, m consensus.Message) { got <- m })
	for i := 0; i < 8; i++ {
		tr.Send(0, 1, modpaxos.Decided{Val: "x"})
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	// After Close returns, no further deliveries may happen.
	n := len(got)
	time.Sleep(80 * time.Millisecond)
	if len(got) != n {
		t.Fatalf("deliveries after Close: %d → %d", n, len(got))
	}
	// Close is idempotent.
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTCPSendAfterCloseIsSilent pins the omission model at the edge: Send
// on a closed transport neither panics nor delivers.
func TestTCPSendAfterCloseIsSilent(t *testing.T) {
	ids := []consensus.ProcessID{0, 1}
	tr, err := NewTCPTransport(ids)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan consensus.Message, 8)
	tr.Register(1, func(_ consensus.ProcessID, m consensus.Message) { got <- m })
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	tr.Send(0, 1, modpaxos.Decided{Val: "x"})
	time.Sleep(50 * time.Millisecond)
	if len(got) != 0 {
		t.Fatalf("delivery after Close: %d messages", len(got))
	}
	if tr.Addr(1) == "" {
		t.Error("Addr should survive Close for logging")
	}
}

// TestTCPLateHandlerRegistration pins the pre-registration buffer: an
// envelope arriving before the destination's handler is installed is held
// and delivered when Register runs, rather than silently lost.
func TestTCPLateHandlerRegistration(t *testing.T) {
	ids := []consensus.ProcessID{0, 1}
	tr, err := NewTCPTransport(ids)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()

	// Send before process 1 has registered; wait until the envelope has
	// been read off the socket and buffered.
	tr.Send(0, 1, modpaxos.Decided{Val: "early"})
	deadline := time.Now().Add(5 * time.Second)
	for {
		ep := tr.endpoint(1)
		ep.mu.Lock()
		buffered := len(ep.pending)
		ep.mu.Unlock()
		if buffered == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("envelope never reached the pre-registration buffer")
		}
		time.Sleep(time.Millisecond)
	}

	got := make(chan consensus.Message, 8)
	tr.Register(1, func(_ consensus.ProcessID, m consensus.Message) { got <- m })
	select {
	case m := <-got:
		if d, ok := m.(modpaxos.Decided); !ok || d.Val != "early" {
			t.Fatalf("flushed message = %#v, want the early Decided", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Register did not flush the buffered envelope")
	}
	// Subsequent traffic flows directly.
	tr.Send(0, 1, modpaxos.Decided{Val: "late"})
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("post-registration delivery failed")
	}
}

// TestMemTransportZeroSeedIsDeterministic pins the seed fix: two transports
// with the zero-value seed draw identical delays for the same send sequence,
// read from their delivery-latency histograms (zero used to mean time-based
// seeding, so no live report was reproducible).
func TestMemTransportZeroSeedIsDeterministic(t *testing.T) {
	script := func() trace.HistogramSnapshot {
		collector := trace.NewCollector()
		collector.EnableHistograms()
		tr := NewMemTransport(MemTransportConfig{MaxDelay: time.Millisecond, Collector: collector})
		defer func() { _ = tr.Close() }()
		tr.Register(1, func(consensus.ProcessID, consensus.Message) {})
		for i := 0; i < 64; i++ {
			tr.Send(0, 1, modpaxos.Decided{Val: "x"})
		}
		name := trace.HistDeliveryPrefix + modpaxos.Decided{}.Type()
		h, ok := collector.HistogramCopy(name)
		if !ok {
			t.Fatal("no delivery-latency histogram")
		}
		return h.Snapshot(name)
	}
	a, b := script(), script()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("zero-seed transports drew different delays:\n%+v\n%+v", a, b)
	}
	if a.Count != 64 || a.Min == a.Max {
		t.Fatalf("want 64 spread delays, got %+v", a)
	}
}

func TestStopIsIdempotentAndWaitsForGoroutines(t *testing.T) {
	c, err := NewCluster(Config{N: 3, Delta: delta},
		factory(t, "modpaxos", delta), distinctProposals(3))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}
}

// TestFaultsRacingStopLeaveNothingRunning is the shutdown barrier's test: a
// caller's fault timer can fire while Stop runs or after it returned (a
// fired timer cannot be stopped), and must not boot a node into a stopped
// cluster, where nothing would ever join its goroutine.
func TestFaultsRacingStopLeaveNothingRunning(t *testing.T) {
	for round := 0; round < 20; round++ {
		c, err := NewCluster(Config{N: 3, Delta: delta},
			factory(t, "modpaxos", delta), distinctProposals(3))
		if err != nil {
			t.Fatal(err)
		}
		c.Start()
		c.Crash(0)
		var faults sync.WaitGroup
		faults.Add(2)
		go func() { defer faults.Done(); c.Restart(0) }()
		go func() { defer faults.Done(); c.Crash(1) }()
		if err := c.Stop(); err != nil {
			t.Fatal(err)
		}
		faults.Wait()
		c.Restart(0) // the timer that fires after Stop returned
		for _, n := range c.nodes {
			n.mu.Lock()
			running := n.running
			n.mu.Unlock()
			if running {
				t.Fatalf("round %d: node %d is running after Stop", round, n.id)
			}
		}
	}
}

// isRunning reports whether process id's node is up.
func isRunning(c *Cluster, id consensus.ProcessID) bool {
	n := c.nodes[id]
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.running
}

// TestStopCancelsScheduledFaults: a CrashAt or RestartAt that has not fired
// when Stop runs is cancelled, so no Crash runs after Stop and no timer or
// goroutine outlives the cluster.
func TestStopCancelsScheduledFaults(t *testing.T) {
	before := runtime.NumGoroutine()
	c, err := NewCluster(Config{N: 3, Delta: delta}, factory(t, "modpaxos", delta), distinctProposals(3))
	if err != nil {
		t.Fatal(err)
	}
	c.CrashAt(0, time.Hour) // held until Start
	c.Start()
	c.CrashAt(1, 30*time.Millisecond)
	c.RestartAt(1, time.Hour)
	c.mu.Lock()
	armed := append([]*time.Timer(nil), c.timers...)
	c.mu.Unlock()
	if len(armed) != 3 {
		t.Fatalf("%d timers armed, want 3", len(armed))
	}
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}
	for i, tm := range armed {
		if tm.Stop() {
			t.Errorf("timer %d was still armed after Stop", i)
		}
	}
	c.CrashAt(2, 0) // after Stop: not armed at all
	c.mu.Lock()
	left := len(c.timers) + len(c.pending)
	c.mu.Unlock()
	if left != 0 {
		t.Errorf("%d faults held after Stop", left)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after Stop, %d before the cluster", n, before)
	}
}

// TestScheduledFaultInThePastFiresAtOnce: an offset that has already passed
// when the fault is scheduled — or that is zero when Start arms it — fires
// at once instead of never.
func TestScheduledFaultInThePastFiresAtOnce(t *testing.T) {
	c, err := NewCluster(Config{N: 3, Delta: delta}, factory(t, "modpaxos", delta), distinctProposals(3))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Stop() }()
	c.CrashAt(2, 0)
	c.Start()
	time.Sleep(20 * time.Millisecond)
	c.CrashAt(1, 5*time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for (isRunning(c, 1) || isRunning(c, 2)) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if isRunning(c, 1) || isRunning(c, 2) {
		t.Fatal("a fault whose instant had passed did not fire")
	}
	c.RestartAt(1, 0)
	for !isRunning(c, 1) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !isRunning(c, 1) {
		t.Fatal("a restart at offset 0 after Start did not fire")
	}
}

// mute is a process that takes part in nothing and never decides.
type mute struct{}

func (mute) Init(consensus.Environment)                           {}
func (mute) HandleMessage(consensus.ProcessID, consensus.Message) {}
func (mute) HandleTimer(consensus.TimerID)                        {}

// TestWaitDecidedAmongCountsWithinItsSubset: the timeout error reports how
// many of the processes waited on decided, not how many decided anywhere.
func TestWaitDecidedAmongCountsWithinItsSubset(t *testing.T) {
	paxos := factory(t, "modpaxos", delta)
	c, err := NewCluster(Config{N: 5, Delta: delta},
		func(id consensus.ProcessID, n int, v consensus.Value) consensus.Process {
			if id == 4 {
				return mute{}
			}
			return paxos(id, n, v)
		}, distinctProposals(5))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Stop() }()
	c.Start()
	if err := c.WaitDecidedAmong([]consensus.ProcessID{0, 1, 2, 3}, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	err = c.WaitDecidedAmong([]consensus.ProcessID{3, 4}, 5*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "1/2 processes decided") {
		t.Fatalf("waiting on {3,4} with 0-3 decided: got %v, want 1/2 processes decided", err)
	}
}

func TestStateDirSurvivesClusterTeardown(t *testing.T) {
	dir := t.TempDir()
	proposalsSet := distinctProposals(3)

	// First incarnation decides and is torn down completely.
	c1, err := NewCluster(Config{N: 3, Delta: delta, StateDir: dir},
		factory(t, "modpaxos", delta), proposalsSet)
	if err != nil {
		t.Fatal(err)
	}
	c1.Start()
	if err := c1.WaitAllDecided(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	var want consensus.Value
	if d, ok := c1.Checker().DecisionOf(0); ok {
		want = d.Value
	}
	if err := c1.Stop(); err != nil {
		t.Fatal(err)
	}

	// Second incarnation over the same directory: every process recovers
	// its decision from disk at Init, without any network exchange needed
	// (the decided state is durable).
	c2, err := NewCluster(Config{N: 3, Delta: delta, StateDir: dir},
		factory(t, "modpaxos", delta), proposalsSet)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c2.Stop() }()
	c2.Start()
	if err := c2.WaitAllDecided(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if d, _ := c2.Checker().DecisionOf(0); d.Value != want {
		t.Fatalf("recovered decision %q, want %q", d.Value, want)
	}
	if err := c2.Checker().Violation(); err != nil {
		t.Fatal(err)
	}
}
