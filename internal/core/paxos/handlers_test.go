package paxos

// Handler-level unit tests driving a single traditional-Paxos process by
// hand; the §2 actions are asserted exactly.

import (
	"testing"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/core/consensus/consensustest"
	"repro/internal/leader"
)

const (
	n5     = 5
	uDelta = 10 * time.Millisecond
)

func boot(t *testing.T, id consensus.ProcessID) (*Process, *consensustest.Env) {
	t.Helper()
	p := New(Config{Delta: uDelta})(id, n5, consensus.Value("mine")).(*Process)
	env := consensustest.New(id, n5)
	p.Init(env)
	env.ClearOutbox()
	return p, env
}

func elect(t *testing.T, p *Process, env *consensustest.Env) consensus.Ballot {
	t.Helper()
	p.HandleMessage(p.id, leader.Announce{Leader: p.id})
	if env.BroadcastsOf("p1a") != 1 {
		t.Fatalf("election did not trigger Start Phase 1: %v", env.Outbox)
	}
	return p.st.MBal
}

func TestElectionTriggersStartPhase1(t *testing.T) {
	p, env := boot(t, 0)
	b := elect(t, p, env)
	if b.Owner(n5) != 0 || b <= 0 {
		t.Fatalf("ballot %v not a fresh ballot owned by 0", b)
	}
}

func TestNonLeaderNeverStartsBallots(t *testing.T) {
	p, env := boot(t, 1)
	p.HandleMessage(1, leader.Announce{Leader: 0})
	p.HandleTimer(tickTimer)
	if env.CountType("p1a") != 0 {
		t.Fatalf("non-leader sent p1a: %v", env.Outbox)
	}
	if _, ok := env.Timers[tickTimer]; !ok {
		t.Fatal("tick timer must re-arm")
	}
}

func TestRejectOnLowerBallot(t *testing.T) {
	p, env := boot(t, 3) // mbal = 3
	p.HandleMessage(0, P1a{Bal: 1})
	msgs := env.SentTo(1) // rejected message goes to the ballot owner (1 mod 5)
	if len(msgs) != 1 {
		t.Fatalf("sent %v, want one Reject to owner 1", env.Outbox)
	}
	if r, ok := msgs[0].(Reject); !ok || r.Bal != 3 {
		t.Fatalf("reply = %#v, want Reject{3}", msgs[0])
	}
}

func TestRejectMakesLeaderRetryHigher(t *testing.T) {
	p, env := boot(t, 0)
	b := elect(t, p, env)
	env.ClearOutbox()
	p.HandleMessage(2, Reject{Bal: b + 37})
	if p.st.MBal <= b+37 {
		t.Fatalf("mbal %v did not jump past the rejected ballot %v", p.st.MBal, b+37)
	}
	if p.st.MBal.Owner(n5) != 0 {
		t.Fatalf("retry ballot %v not owned by leader", p.st.MBal)
	}
	if env.BroadcastsOf("p1a") != 1 {
		t.Fatal("retry did not broadcast a fresh phase 1a")
	}
}

func TestRejectIgnoredByNonLeader(t *testing.T) {
	p, env := boot(t, 1)
	p.HandleMessage(1, leader.Announce{Leader: 0})
	env.ClearOutbox()
	before := p.st.MBal
	p.HandleMessage(2, Reject{Bal: 99})
	if p.st.MBal != before || len(env.Outbox) != 0 {
		t.Fatal("non-leader reacted to Reject")
	}
}

func TestPhase2PicksHighestAcceptedAndDecides(t *testing.T) {
	p, env := boot(t, 0)
	b := elect(t, p, env)
	env.ClearOutbox()
	p.HandleMessage(0, P1b{Bal: b, ABal: consensus.NoBallot})
	p.HandleMessage(1, P1b{Bal: b, ABal: 6, AVal: "locked"})
	p.HandleMessage(2, P1b{Bal: b, ABal: 2, AVal: "older"})
	if env.BroadcastsOf("p2a") != 1 {
		t.Fatalf("2a broadcasts = %d, want 1", env.BroadcastsOf("p2a"))
	}
	if m := env.SentTo(0)[0].(P2a); m.Val != "locked" {
		t.Fatalf("2a value %q, want locked", m.Val)
	}
	// Majority of matching 2b decides.
	env.ClearOutbox()
	for from := consensus.ProcessID(0); from < 3; from++ {
		p.HandleMessage(from, P2b{Bal: b, Val: "locked"})
	}
	v, decided := env.Decided()
	if !decided || v != "locked" {
		t.Fatalf("decision = (%q,%v)", v, decided)
	}
}

func TestSpontaneousRetryOnTick(t *testing.T) {
	p, env := boot(t, 0)
	b := elect(t, p, env)
	env.ClearOutbox()
	p.HandleTimer(tickTimer)
	if p.st.MBal <= b {
		t.Fatal("tick did not advance the ballot")
	}
	if env.BroadcastsOf("p1a") != 1 {
		t.Fatal("tick did not re-broadcast phase 1a")
	}
}

func TestDecidedProcessGossipsOnTick(t *testing.T) {
	p, env := boot(t, 2)
	p.HandleMessage(0, Decided{Val: "v"})
	env.ClearOutbox()
	p.HandleTimer(tickTimer)
	if env.BroadcastsOf("decided") != 1 {
		t.Fatalf("decided tick sent %v", env.Outbox)
	}
}

func TestRestartKeepsPromiseAndAcceptance(t *testing.T) {
	p, env := boot(t, 2)
	p.HandleMessage(0, P1a{Bal: 10})
	p.HandleMessage(0, P2a{Bal: 10, Val: "v"})
	if p.st.ABal != 10 {
		t.Fatal("setup: acceptance missing")
	}
	p2 := New(Config{Delta: uDelta})(2, n5, "mine").(*Process)
	env2 := consensustest.New(2, n5)
	env2.Storage = env.Storage
	p2.Init(env2)
	if p2.st.MBal != 10 || p2.st.ABal != 10 || p2.st.AVal != "v" {
		t.Fatalf("restart lost state: %+v", p2.st)
	}
	// A fresh P1a below the promise is still rejected after restart.
	env2.ClearOutbox()
	p2.HandleMessage(0, P1a{Bal: 5})
	if len(env2.SentTo(0)) != 1 {
		t.Fatalf("restarted process did not reject: %v", env2.Outbox)
	}
}

// TestRepeatedStepsDoNotAllocate pins the steps a process repeats until TS
// at zero allocations: persisting durable state (the store copies it in
// place), re-answering a duplicate phase 1a, and, once decided, answering a
// straggler (both replies are boxed once).
func TestRepeatedStepsDoNotAllocate(t *testing.T) {
	p, env := boot(t, 1)
	if allocs := env.AllocsPerStep(p.persist); allocs != 0 {
		t.Errorf("persist allocated %.1f times, want 0", allocs)
	}
	var p1a consensus.Message = P1a{Bal: p.st.MBal}
	if allocs := env.AllocsPerStep(func() { p.HandleMessage(0, p1a) }); allocs != 0 {
		t.Errorf("answering a duplicate P1a allocated %.1f times, want 0", allocs)
	}
	if got := env.SentTo(p.st.MBal.Owner(n5)); len(got) != 1 || got[0] != (P1b{Bal: p.st.MBal, ABal: consensus.NoBallot}) {
		t.Fatalf("the duplicate P1a was answered with %v", got)
	}
	p.decide("mine")
	var p2b consensus.Message = P2b{Bal: p.st.MBal, Val: "mine"}
	if allocs := env.AllocsPerStep(func() { p.HandleMessage(2, p2b) }); allocs != 0 {
		t.Errorf("a decided process answering a P2b allocated %.1f times, want 0", allocs)
	}
	if got := env.SentTo(2); len(got) != 1 || got[0] != (Decided{Val: "mine"}) {
		t.Fatalf("the decided process answered %v", got)
	}
}
