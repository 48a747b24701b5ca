package roundbased

// Handler-level unit tests for the rotating-coordinator algorithm.

import (
	"testing"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/core/consensus/consensustest"
)

const (
	n5     = 5
	uDelta = 10 * time.Millisecond
)

func boot(t *testing.T, id consensus.ProcessID, proposal consensus.Value) (*Process, *consensustest.Env) {
	t.Helper()
	p := MustNew(Config{Delta: uDelta})(id, n5, proposal).(*Process)
	env := consensustest.New(id, n5)
	p.Init(env)
	return p, env
}

func TestRoundZeroEntry(t *testing.T) {
	p, env := boot(t, 1, "v1")
	if env.BroadcastsOf("inround") != 1 {
		t.Fatal("round entry must broadcast InRound")
	}
	// Estimate goes to coordinator of round 0 = process 0.
	found := false
	for _, m := range env.SentTo(0) {
		if e, ok := m.(Estimate); ok && e.Round == 0 && e.Est == "v1" && e.TSRound == -1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no initial estimate to coordinator: %v", env.Outbox)
	}
	if _, ok := env.Timers[roundTimer]; !ok {
		t.Fatal("round timer not armed")
	}
	_ = p
}

func TestCoordinatorPicksMaxTSRound(t *testing.T) {
	p, env := boot(t, 0, "v0") // coordinator of round 0
	env.ClearOutbox()
	p.HandleMessage(0, Estimate{Round: 0, Est: "v0", TSRound: -1})
	p.HandleMessage(1, Estimate{Round: 0, Est: "newest", TSRound: 7})
	if env.CountType("coord") != 0 {
		t.Fatal("coordinated before majority of estimates")
	}
	p.HandleMessage(2, Estimate{Round: 0, Est: "older", TSRound: 3})
	if env.BroadcastsOf("coord") != 1 {
		t.Fatalf("coord broadcasts = %d, want 1", env.BroadcastsOf("coord"))
	}
	if m := env.SentTo(0)[0].(Coord); m.V != "newest" {
		t.Fatalf("coordinated %q, want the max-tsRound estimate", m.V)
	}
	if p.st.CoordRound != 0 || p.st.CoordVal != "newest" {
		t.Fatalf("coordination not made durable: %+v", p.st)
	}
}

func TestCoordAdoptionLocksAndAcks(t *testing.T) {
	p, env := boot(t, 3, "v3")
	env.ClearOutbox()
	p.HandleMessage(0, Coord{Round: 0, V: "chosen"})
	if p.st.Est != "chosen" || p.st.TSRound != 0 {
		t.Fatalf("lock not taken: %+v", p.st)
	}
	acks := 0
	for _, m := range env.SentTo(0) {
		if _, ok := m.(Ack); ok {
			acks++
		}
	}
	if acks != 1 {
		t.Fatalf("acks to coordinator = %d, want 1", acks)
	}
}

func TestMajorityAcksDecide(t *testing.T) {
	p, env := boot(t, 0, "v0")
	for from := consensus.ProcessID(0); from < 3; from++ {
		p.HandleMessage(from, Estimate{Round: 0, Est: "v0", TSRound: -1})
	}
	env.ClearOutbox()
	p.HandleMessage(1, Ack{Round: 0})
	p.HandleMessage(2, Ack{Round: 0})
	if _, decided := env.Decided(); decided {
		t.Fatal("decided with 2 acks")
	}
	p.HandleMessage(3, Ack{Round: 0})
	v, decided := env.Decided()
	if !decided || v != "v0" {
		t.Fatalf("decision = (%q,%v)", v, decided)
	}
	if env.BroadcastsOf("decided") != 1 {
		t.Fatal("decision not broadcast")
	}
}

func TestTimeoutNeedsMajorityInRound(t *testing.T) {
	p, env := boot(t, 1, "v1")
	env.ClearOutbox()
	p.HandleTimer(roundTimer)
	if p.st.Round != 0 {
		t.Fatal("advanced without majority InRound")
	}
	// Timeout re-announces for recovery.
	if env.BroadcastsOf("inround") != 1 || env.CountType("estimate") != 1 {
		t.Fatalf("timeout did not retransmit: %v", env.Outbox)
	}
	p.HandleMessage(2, InRound{Round: 0})
	if p.st.Round != 0 {
		t.Fatal("advanced with 2/5 in round")
	}
	p.HandleMessage(3, InRound{Round: 0})
	if p.st.Round != 1 {
		t.Fatalf("round = %d, want 1 after majority + timeout", p.st.Round)
	}
}

func TestJumpToHigherRound(t *testing.T) {
	p, env := boot(t, 1, "v1")
	env.ClearOutbox()
	p.HandleMessage(4, InRound{Round: 7})
	if p.st.Round != 7 {
		t.Fatalf("round = %d, want 7 (jump)", p.st.Round)
	}
	// Jump re-announces and re-estimates to round 7's coordinator (2).
	if env.BroadcastsOf("inround") != 1 {
		t.Fatal("jump did not announce the new round")
	}
	if len(env.SentTo(2)) == 0 {
		t.Fatal("no estimate to round-7 coordinator")
	}
}

func TestLowerRoundMessagesIgnored(t *testing.T) {
	p, env := boot(t, 1, "v1")
	p.HandleMessage(4, InRound{Round: 3})
	env.ClearOutbox()
	p.HandleMessage(0, Coord{Round: 0, V: "stale"})
	if p.st.Est == "stale" {
		t.Fatal("adopted a stale coordination")
	}
	if len(env.Outbox) != 0 {
		t.Fatalf("reacted to stale message: %v", env.Outbox)
	}
}

func TestCoordinatorRestartResendsSameValue(t *testing.T) {
	p, env := boot(t, 0, "v0")
	for from := consensus.ProcessID(0); from < 3; from++ {
		p.HandleMessage(from, Estimate{Round: 0, Est: "v0", TSRound: -1})
	}
	// Restart the coordinator mid-round.
	p2 := MustNew(Config{Delta: uDelta})(0, n5, "v0").(*Process)
	env2 := consensustest.New(0, n5)
	env2.Storage = env.Storage
	p2.Init(env2)
	env2.ClearOutbox()
	// New estimates trickle in; the coordinator must re-send "v0" — the
	// recorded coordination — even if the new estimates would pick
	// something else.
	p2.HandleMessage(4, Estimate{Round: 0, Est: "other", TSRound: 99})
	coords := 0
	for _, s := range env2.Outbox {
		if c, ok := s.Msg.(Coord); ok {
			if c.V != "v0" {
				t.Fatalf("restarted coordinator equivocated: %q", c.V)
			}
			coords++
		}
	}
	if coords == 0 {
		t.Fatal("restarted coordinator did not re-send its value")
	}
}

func TestDecidedReplies(t *testing.T) {
	p, env := boot(t, 2, "v2")
	p.HandleMessage(0, Decided{Val: "v"})
	env.ClearOutbox()
	p.HandleMessage(3, InRound{Round: 5})
	msgs := env.SentTo(3)
	if len(msgs) != 1 {
		t.Fatalf("decided process sent %v", env.Outbox)
	}
	if d, ok := msgs[0].(Decided); !ok || d.Val != "v" {
		t.Fatalf("reply = %#v", msgs[0])
	}
}

// TestRepeatedStepsDoNotAllocate pins persisting durable state (the store
// copies it in place) and a decided process answering a straggler (the
// Decided reply is boxed once) at zero allocations.
func TestRepeatedStepsDoNotAllocate(t *testing.T) {
	p, env := boot(t, 1, "v1")
	if allocs := env.AllocsPerStep(p.persist); allocs != 0 {
		t.Errorf("persist allocated %.1f times, want 0", allocs)
	}
	p.decide("v1")
	var in consensus.Message = InRound{Round: 3}
	if allocs := env.AllocsPerStep(func() { p.HandleMessage(2, in) }); allocs != 0 {
		t.Errorf("a decided process answering an InRound allocated %.1f times, want 0", allocs)
	}
	if got := env.SentTo(2); len(got) != 1 || got[0] != (Decided{Val: "v1"}) {
		t.Fatalf("the decided process answered %v", got)
	}
}
