package bconsensus

// Handler-level unit tests for the modified B-Consensus: the oracle path
// (hold-back, first delivery), the two voting stages, round jumping with
// estimate adoption, and durable vote replay on restart.

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

// deliverWab pushes a Wab through the hold-back by advancing the clock past
// the hold duration and firing the oracle timer.
func deliverWab(p *Process, env *consensustest.Env, from consensus.ProcessID, m Wab) {
	p.HandleMessage(from, m)
	env.Clock += 3 * uDelta // > 2δ(1+ρ)
	p.HandleTimer(oracleTimer)
}

func TestInitWabcastsProposal(t *testing.T) {
	p, env := boot(t, 2, "v2")
	if env.BroadcastsOf("wab") != 1 {
		t.Fatalf("Init w-abcast %d rounds, want 1", env.BroadcastsOf("wab"))
	}
	m := env.SentTo(0)[0].(Wab)
	if m.Round != 0 || m.Est != "v2" || m.LC == 0 {
		t.Fatalf("wab = %#v", m)
	}
	if p.stage != stageWab {
		t.Fatalf("stage = %d, want 1", p.stage)
	}
}

func TestHoldbackDelaysDelivery(t *testing.T) {
	p, env := boot(t, 0, "v0")
	env.ClearOutbox()
	p.HandleMessage(1, Wab{LC: 5, Round: 0, Est: "w"})
	// Before the hold-back expires, no FIRST vote.
	p.HandleTimer(oracleTimer)
	if env.CountType("first") != 0 {
		t.Fatal("w-adelivered before the 2δ hold-back")
	}
	env.Clock += 3 * uDelta
	p.HandleTimer(oracleTimer)
	if env.BroadcastsOf("first") != 1 {
		t.Fatalf("first-vote broadcasts = %d, want 1", env.BroadcastsOf("first"))
	}
	if p.st.Est != "w" || !p.st.FirstVoted || p.st.FirstVal != "w" {
		t.Fatalf("first delivery not adopted durably: %+v", p.st)
	}
}

func TestFirstDeliveryIsSmallestTimestamp(t *testing.T) {
	p, env := boot(t, 0, "v0")
	env.ClearOutbox()
	// Two round-0 wabs arrive; the smaller (LC, sender) must win even
	// though the larger arrived first.
	p.HandleMessage(3, Wab{LC: 9, Round: 0, Est: "big"})
	p.HandleMessage(1, Wab{LC: 4, Round: 0, Est: "small"})
	env.Clock += 3 * uDelta
	p.HandleTimer(oracleTimer)
	if p.st.Est != "small" {
		t.Fatalf("adopted %q, want the timestamp-order first (small)", p.st.Est)
	}
}

func TestStageTwoMajorityAllEqual(t *testing.T) {
	p, env := boot(t, 0, "v0")
	deliverWab(p, env, 1, Wab{LC: 3, Round: 0, Est: "w"})
	env.ClearOutbox()
	p.HandleMessage(1, First{LC: 10, Round: 0, Est: "w"})
	p.HandleMessage(2, First{LC: 11, Round: 0, Est: "w"})
	// p's own FIRST vote is in the outbox, not in its own vote map until
	// the loopback arrives; feed it.
	p.HandleMessage(0, First{LC: 12, Round: 0, Est: "w"})
	if env.BroadcastsOf("second") != 1 {
		t.Fatalf("second-vote broadcasts = %d, want 1", env.BroadcastsOf("second"))
	}
	m := env.SentTo(0)[len(env.SentTo(0))-1].(Second)
	if !m.HasV || m.V != "w" {
		t.Fatalf("second vote = %#v, want maj=w", m)
	}
}

func TestStageTwoSplitVotesYieldBottom(t *testing.T) {
	p, env := boot(t, 0, "v0")
	deliverWab(p, env, 1, Wab{LC: 3, Round: 0, Est: "w"})
	env.ClearOutbox()
	p.HandleMessage(0, First{LC: 10, Round: 0, Est: "a"})
	p.HandleMessage(1, First{LC: 11, Round: 0, Est: "b"})
	p.HandleMessage(2, First{LC: 12, Round: 0, Est: "c"})
	m := env.SentTo(0)[len(env.SentTo(0))-1].(Second)
	if m.HasV {
		t.Fatalf("split votes produced maj=%q, want ⊥", m.V)
	}
}

func TestStageThreeDecidesOnMajorityValue(t *testing.T) {
	p, env := boot(t, 0, "v0")
	deliverWab(p, env, 1, Wab{LC: 3, Round: 0, Est: "w"})
	for from := consensus.ProcessID(0); from < 3; from++ {
		p.HandleMessage(from, First{LC: 20 + uint64(from), Round: 0, Est: "w"})
	}
	env.ClearOutbox()
	for from := consensus.ProcessID(0); from < 3; from++ {
		p.HandleMessage(from, Second{LC: 30 + uint64(from), Round: 0, Est: "w", HasV: true, V: "w"})
	}
	v, decided := env.Decided()
	if !decided || v != "w" {
		t.Fatalf("decision = (%q,%v), want (w,true)", v, decided)
	}
	if env.BroadcastsOf("decided") != 1 {
		t.Fatal("decision not broadcast")
	}
}

func TestStageThreeAllBottomAdvancesRound(t *testing.T) {
	p, env := boot(t, 0, "v0")
	deliverWab(p, env, 1, Wab{LC: 3, Round: 0, Est: "w"})
	env.ClearOutbox()
	for from := consensus.ProcessID(0); from < 3; from++ {
		p.HandleMessage(from, First{LC: 20 + uint64(from), Round: 0, Est: consensus.Value("v" + string(rune('0'+from)))})
	}
	for from := consensus.ProcessID(0); from < 3; from++ {
		p.HandleMessage(from, Second{LC: 30 + uint64(from), Round: 0, Est: "x", HasV: false})
	}
	if _, decided := env.Decided(); decided {
		t.Fatal("decided on all-⊥ votes")
	}
	if p.st.Round != 1 {
		t.Fatalf("round = %d, want 1", p.st.Round)
	}
	if env.BroadcastsOf("wab") != 1 {
		t.Fatal("new round did not w-abcast")
	}
}

func TestStageThreeSingleValueAdoptedNotDecided(t *testing.T) {
	p, env := boot(t, 0, "v0")
	deliverWab(p, env, 1, Wab{LC: 3, Round: 0, Est: "w"})
	for from := consensus.ProcessID(0); from < 3; from++ {
		p.HandleMessage(from, First{LC: 20 + uint64(from), Round: 0, Est: "w"})
	}
	env.ClearOutbox()
	p.HandleMessage(0, Second{LC: 30, Round: 0, Est: "w", HasV: true, V: "w"})
	p.HandleMessage(1, Second{LC: 31, Round: 0, Est: "x", HasV: false})
	p.HandleMessage(2, Second{LC: 32, Round: 0, Est: "x", HasV: false})
	if _, decided := env.Decided(); decided {
		t.Fatal("decided with a single non-⊥ vote")
	}
	if p.st.Round != 1 || p.st.Est != "w" {
		t.Fatalf("must adopt w and advance: round=%d est=%q", p.st.Round, p.st.Est)
	}
}

func TestJumpAdoptsSenderEstimate(t *testing.T) {
	p, env := boot(t, 0, "v0")
	env.ClearOutbox()
	p.HandleMessage(3, First{LC: 50, Round: 6, Est: "locked"})
	if p.st.Round != 6 {
		t.Fatalf("round = %d, want 6", p.st.Round)
	}
	if p.st.Est != "locked" {
		t.Fatalf("est = %q; jumping must adopt the sender's estimate", p.st.Est)
	}
	// The jump w-abcasts the adopted estimate for round 6.
	m := env.SentTo(0)[0].(Wab)
	if m.Round != 6 || m.Est != "locked" {
		t.Fatalf("post-jump wab = %#v", m)
	}
}

func TestLamportWitnessAdvancesClock(t *testing.T) {
	p, _ := boot(t, 0, "v0")
	before := p.lc.Now()
	p.HandleMessage(1, Wab{LC: 1000, Round: 0, Est: "w"})
	if p.lc.Now() <= 1000 || p.lc.Now() <= before {
		t.Fatalf("lamport clock %d did not witness 1000", p.lc.Now())
	}
}

func TestHeartbeatRetransmitsCurrentStage(t *testing.T) {
	p, env := boot(t, 0, "v0")
	env.ClearOutbox()
	p.HandleTimer(heartbeatTimer)
	if env.BroadcastsOf("wab") != 1 {
		t.Fatal("stage-1 heartbeat must re-wabcast")
	}
	// Same logical message: identical timestamp.
	if m := env.SentTo(0)[0].(Wab); m.LC != p.wabLC {
		t.Fatalf("re-wab used a new timestamp %d (want %d)", m.LC, p.wabLC)
	}
	deliverWab(p, env, 1, Wab{LC: 2, Round: 0, Est: "w"})
	env.ClearOutbox()
	p.HandleTimer(heartbeatTimer)
	if env.BroadcastsOf("first") != 1 {
		t.Fatal("stage-2 heartbeat must re-send the FIRST vote")
	}
}

func TestRestartReplaysFirstVote(t *testing.T) {
	p, env := boot(t, 0, "v0")
	deliverWab(p, env, 1, Wab{LC: 3, Round: 0, Est: "w"})
	if !p.st.FirstVoted {
		t.Fatal("setup: no first vote")
	}
	p2 := MustNew(Config{Delta: uDelta})(0, n5, "v0").(*Process)
	env2 := consensustest.New(0, n5)
	env2.Storage = env.Storage
	p2.Init(env2)
	// The restarted process is back at stage 2 with the SAME vote.
	if p2.stage != stageFirst {
		t.Fatalf("stage = %d, want 2 (resume)", p2.stage)
	}
	votes := 0
	for _, s := range env2.Outbox {
		if f, ok := s.Msg.(First); ok {
			if f.Est != "w" {
				t.Fatalf("restart re-voted %q, want w", f.Est)
			}
			votes++
		}
	}
	if votes != n5 {
		t.Fatalf("restart sent %d FIRST messages, want one broadcast", votes)
	}
	// And its Lamport clock moved strictly past the persisted value.
	if p2.lc.Now() <= p.st.LC-1 {
		t.Fatalf("lamport clock regressed: %d", p2.lc.Now())
	}
}

func TestRestartReplaysSecondVote(t *testing.T) {
	p, env := boot(t, 0, "v0")
	deliverWab(p, env, 1, Wab{LC: 3, Round: 0, Est: "w"})
	for from := consensus.ProcessID(0); from < 3; from++ {
		p.HandleMessage(from, First{LC: 20 + uint64(from), Round: 0, Est: "w"})
	}
	if !p.st.SecondVoted {
		t.Fatal("setup: no second vote")
	}
	p2 := MustNew(Config{Delta: uDelta})(0, n5, "v0").(*Process)
	env2 := consensustest.New(0, n5)
	env2.Storage = env.Storage
	p2.Init(env2)
	if p2.stage != stageSecond {
		t.Fatalf("stage = %d, want 3 (resume)", p2.stage)
	}
	seconds := 0
	for _, s := range env2.Outbox {
		if sv, ok := s.Msg.(Second); ok {
			if !sv.HasV || sv.V != "w" {
				t.Fatalf("restart re-voted %#v, want maj=w", sv)
			}
			seconds++
		}
	}
	if seconds != n5 {
		t.Fatalf("restart sent %d SECOND messages, want one broadcast", seconds)
	}
}

func TestDecidedReplies(t *testing.T) {
	p, env := boot(t, 0, "v0")
	p.HandleMessage(1, Decided{Val: "v"})
	env.ClearOutbox()
	p.HandleMessage(2, Wab{LC: 9, Round: 3, Est: "x"})
	msgs := env.SentTo(2)
	if len(msgs) != 1 {
		t.Fatalf("decided process sent %v", env.Outbox)
	}
	if d, ok := msgs[0].(Decided); !ok || d.Val != "v" {
		t.Fatalf("reply = %#v", msgs[0])
	}
}

// TestWabReceiveDoesNotAllocate pins the receive path of the message the
// oracle regimes deliver most: a w-abcast goes into the hold-back queue as
// the interface value it arrived in (boxing the type-switched copy again was
// 15 % of all bytes a scenario grid allocated), and re-arming the oracle
// timer is free.
func TestWabReceiveDoesNotAllocate(t *testing.T) {
	p, env := boot(t, 0, "v0")
	const warm, measured = 1500, 1000
	msgs := make([]consensus.Message, 0, warm+measured+1)
	for lc := uint64(1); int(lc) <= cap(msgs); lc++ {
		msgs = append(msgs, Wab{LC: lc, Round: 0, Est: "w"})
	}
	// Grow the queue past what the measured receives need, then drain it.
	for _, m := range msgs[:warm] {
		p.HandleMessage(1, m)
	}
	env.Clock += 3 * uDelta
	p.HandleTimer(oracleTimer)
	if p.hb.Len() != 0 || p.st.Decided {
		t.Fatalf("warm-up left %d held messages, decided %v", p.hb.Len(), p.st.Decided)
	}
	next := warm
	allocs := testing.AllocsPerRun(measured, func() {
		p.HandleMessage(1, msgs[next])
		next++
	})
	if allocs != 0 {
		t.Fatalf("receiving a Wab allocated %.2f times, want 0", allocs)
	}
	if p.hb.Len() != measured+1 {
		t.Fatalf("hold-back queue holds %d messages, want %d", p.hb.Len(), measured+1)
	}
}

// TestRepeatedStepsDoNotAllocate pins the steps a process repeats until TS
// at zero allocations: persisting durable state (the store copies it in
// place), the stage-1 heartbeat (the w-abcast keeps its timestamp, so its
// box is reused), and, once decided, answering a straggler.
func TestRepeatedStepsDoNotAllocate(t *testing.T) {
	p, env := boot(t, 1, "v1")
	if allocs := env.AllocsPerStep(p.persist); allocs != 0 {
		t.Errorf("persist allocated %.1f times, want 0", allocs)
	}
	if p.stage != stageWab {
		t.Fatalf("booted in stage %d, want the w-abcast stage", p.stage)
	}
	if allocs := env.AllocsPerStep(func() { p.HandleTimer(heartbeatTimer) }); allocs != 0 {
		t.Errorf("a stage-1 heartbeat allocated %.1f times, want 0", allocs)
	}
	if got := env.SentTo(3); len(got) != 1 || got[0] != (Wab{LC: p.wabLC, Round: p.st.Round, Est: "v1"}) {
		t.Fatalf("the heartbeat sent %v", got)
	}
	p.decide("v1")
	var first consensus.Message = First{LC: 9, Round: 0, Est: "v1"}
	if allocs := env.AllocsPerStep(func() { p.HandleMessage(2, first) }); allocs != 0 {
		t.Errorf("a decided process answering a First allocated %.1f times, want 0", allocs)
	}
	if got := env.SentTo(2); len(got) != 1 || got[0] != (Decided{Val: "v1"}) {
		t.Fatalf("the decided process answered %v", got)
	}
}
