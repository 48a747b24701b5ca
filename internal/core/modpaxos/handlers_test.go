package modpaxos

// Handler-level unit tests: each test drives a single Process by hand
// through consensustest.Env and asserts the exact messages, timers, and
// persistence the paper's actions prescribe. The integration-level timing
// behaviour is covered in modpaxos_test.go.

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

// boot creates a process on a fresh env and clears Init's announcements.
func boot(t *testing.T, id consensus.ProcessID, cfg Config) (*Process, *consensustest.Env) {
	t.Helper()
	cfg.Delta = uDelta
	factory, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := factory(id, n5, consensus.Value("mine")).(*Process)
	env := consensustest.New(id, n5)
	p.Init(env)
	env.ClearOutbox()
	return p, env
}

func TestInitBroadcastsPhase1aAndArmsTimers(t *testing.T) {
	factory := MustNew(Config{Delta: uDelta})
	p := factory(2, n5, "v").(*Process)
	env := consensustest.New(2, n5)
	p.Init(env)
	if got := env.BroadcastsOf("p1a"); got != 1 {
		t.Fatalf("Init broadcast %d phase 1a rounds, want 1", got)
	}
	if _, ok := env.Timers[sessionTimer]; !ok {
		t.Fatal("session timer not armed at Init")
	}
	if _, ok := env.Timers[heartbeatTimer]; !ok {
		t.Fatal("heartbeat timer not armed at Init")
	}
	// Initial ballot is the process id (session 0).
	if p.st.MBal != 2 {
		t.Fatalf("initial mbal = %v, want 2", p.st.MBal)
	}
}

// TestPreparedFollowerOpensSilently: a prepared non-owner starts inside
// session 1 with phase 1 already run (§4), so its first Init begins no
// session and sends nothing; its ε heartbeat still speaks once it has been
// quiet for ε. A restart from stored state announces like any restart, and
// the owner still sends phase 2a at once.
func TestPreparedFollowerOpensSilently(t *testing.T) {
	factory := MustNew(Config{Delta: uDelta, Prepared: true})
	p := factory(2, n5, "v").(*Process)
	env := consensustest.New(2, n5)
	p.Init(env)
	if len(env.Outbox) != 0 {
		t.Fatalf("a fresh prepared follower sent %v at Init, want nothing", env.Outbox)
	}
	if p.st.MBal != consensus.BallotFor(1, 0, n5) {
		t.Fatalf("mbal = %v, want the prepared session-1 ballot", p.st.MBal)
	}
	if _, ok := env.Timers[sessionTimer]; !ok {
		t.Fatal("session timer not armed at Init")
	}
	if _, ok := env.Timers[heartbeatTimer]; !ok {
		t.Fatal("heartbeat timer not armed at Init")
	}
	env.Clock += p.cfg.Eps
	p.HandleTimer(heartbeatTimer)
	if got := env.BroadcastsOf("p1a"); got != 1 || len(env.Outbox) != n5 {
		t.Fatalf("the heartbeat after ε sent %v, want one phase 1a broadcast", env.Outbox)
	}

	restarted := factory(2, n5, "v").(*Process)
	env2 := consensustest.New(2, n5)
	env2.Storage = env.Storage
	restarted.Init(env2)
	if got := env2.BroadcastsOf("p1a"); got != 1 {
		t.Fatalf("a restarted prepared follower broadcast %d phase 1a rounds, want 1", got)
	}

	owner := factory(0, n5, "v").(*Process)
	env0 := consensustest.New(0, n5)
	owner.Init(env0)
	if got := env0.BroadcastsOf("p2a"); got != 1 || len(env0.Outbox) != n5 {
		t.Fatalf("the prepared owner sent %v at Init, want one phase 2a broadcast", env0.Outbox)
	}
}

func TestP1aLowerBallotIgnoredNoReject(t *testing.T) {
	p, env := boot(t, 3, Config{})
	p.HandleMessage(1, P1a{Bal: 1}) // lower than mbal=3
	if len(env.Outbox) != 0 {
		t.Fatalf("lower-ballot p1a triggered %v; the modified algorithm has no Reject", env.Outbox)
	}
}

func TestP1aEqualBallotReAnswersOwner(t *testing.T) {
	p, env := boot(t, 3, Config{})
	p.HandleMessage(3, P1a{Bal: 3}) // duplicate of own current ballot
	msgs := env.SentTo(3)
	if len(msgs) != 1 {
		t.Fatalf("sent %v, want one p1b to owner 3", env.Outbox)
	}
	if m, ok := msgs[0].(P1b); !ok || m.Bal != 3 || m.ABal != consensus.NoBallot {
		t.Fatalf("reply = %#v, want P1b{3, ⊥}", msgs[0])
	}
}

func TestAdoptHigherBallotSameSessionNoTimerReset(t *testing.T) {
	p, env := boot(t, 0, Config{})
	before := env.Armings[sessionTimer]
	p.HandleMessage(4, P1a{Bal: 4}) // session 0, higher than mbal=0
	if p.st.MBal != 4 {
		t.Fatalf("mbal = %v, want 4", p.st.MBal)
	}
	if env.Armings[sessionTimer] != before {
		t.Fatal("same-session adoption reset the session timer")
	}
	// Still answers the owner.
	if len(env.SentTo(4)) != 1 {
		t.Fatalf("no p1b to owner: %v", env.Outbox)
	}
}

func TestAdoptHigherSessionResetsTimerAndAnnounces(t *testing.T) {
	p, env := boot(t, 0, Config{})
	before := env.Armings[sessionTimer]
	b := consensus.BallotFor(3, 2, n5) // session 3 owned by 2
	p.HandleMessage(2, P1a{Bal: b})
	if p.session() != 3 {
		t.Fatalf("session = %d, want 3", p.session())
	}
	if env.Armings[sessionTimer] != before+1 {
		t.Fatal("session entry must reset the session timer")
	}
	if env.BroadcastsOf("p1a") != 1 {
		t.Fatalf("session entry must broadcast a phase 1a; outbox %v", env.Outbox)
	}
	// Contact set resets to {self, sender}.
	_, self := p.contacts.Get(0)
	_, sender := p.contacts.Get(2)
	if p.contacts.Len() != 2 || !self || !sender {
		t.Fatalf("contacts after session entry: %d, self %v, sender %v; want {0,2}", p.contacts.Len(), self, sender)
	}
}

func TestStartPhase1RequiresTimerAndMajority(t *testing.T) {
	p, env := boot(t, 0, Config{})
	// Put the process in session 1 (ballot 5+0 = owned by 0).
	p.HandleMessage(1, P1a{Bal: consensus.BallotFor(1, 1, n5)})
	if p.session() != 1 {
		t.Fatalf("setup: session = %d", p.session())
	}
	env.ClearOutbox()

	// Timer expired, but only 2 contacts (self + 1): condition (ii) fails.
	p.HandleTimer(sessionTimer)
	if p.session() != 1 {
		t.Fatal("Start Phase 1 ran without a majority of contacts")
	}
	// Third contact arrives (majority of 5 = 3): the pending action fires.
	p.HandleMessage(2, P1a{Bal: consensus.BallotFor(1, 1, n5)})
	if p.session() != 2 {
		t.Fatalf("session = %d, want 2 after majority + expired timer", p.session())
	}
	if p.st.MBal != consensus.BallotFor(2, 0, n5) {
		t.Fatalf("mbal = %v, want own session-2 ballot %v", p.st.MBal, consensus.BallotFor(2, 0, n5))
	}
	_ = env
}

func TestStartPhase1Session0NeedsNoMajority(t *testing.T) {
	p, _ := boot(t, 0, Config{})
	p.HandleTimer(sessionTimer)
	if p.session() != 1 {
		t.Fatalf("session = %d; session 0 should advance on timer alone", p.session())
	}
}

func TestOwnerSendsPhase2aWithHighestAcceptedValue(t *testing.T) {
	p, env := boot(t, 0, Config{})
	p.HandleTimer(sessionTimer) // enter session 1 with own ballot 5
	env.ClearOutbox()
	b := p.st.MBal

	p.HandleMessage(0, P1b{Bal: b, ABal: consensus.NoBallot})
	p.HandleMessage(1, P1b{Bal: b, ABal: 2, AVal: "old-2"})
	if env.CountType("p2a") != 0 {
		t.Fatal("sent 2a before majority of 1b")
	}
	p.HandleMessage(2, P1b{Bal: b, ABal: 4, AVal: "old-4"})
	if got := env.BroadcastsOf("p2a"); got != 1 {
		t.Fatalf("2a broadcasts = %d, want 1", got)
	}
	m := env.SentTo(1)[0].(P2a)
	if m.Val != "old-4" {
		t.Fatalf("2a value = %q, want the highest accepted (old-4)", m.Val)
	}
	if !p.st.Sent2a || p.st.Chosen != "old-4" {
		t.Fatal("Sent2a/Chosen not recorded durably")
	}
}

func TestOwnerProposesOwnValueWhenQuorumEmpty(t *testing.T) {
	p, env := boot(t, 0, Config{})
	p.HandleTimer(sessionTimer)
	env.ClearOutbox()
	b := p.st.MBal
	for from := consensus.ProcessID(0); from < 3; from++ {
		p.HandleMessage(from, P1b{Bal: b, ABal: consensus.NoBallot})
	}
	m := env.SentTo(0)[0].(P2a)
	if m.Val != "mine" {
		t.Fatalf("2a value = %q, want own proposal", m.Val)
	}
}

func TestLatePhase1bGetsTargetedRetransmit(t *testing.T) {
	p, env := boot(t, 0, Config{})
	p.HandleTimer(sessionTimer)
	b := p.st.MBal
	for from := consensus.ProcessID(0); from < 3; from++ {
		p.HandleMessage(from, P1b{Bal: b, ABal: consensus.NoBallot})
	}
	env.ClearOutbox()
	p.HandleMessage(4, P1b{Bal: b, ABal: consensus.NoBallot}) // straggler
	msgs := env.SentTo(4)
	if len(msgs) != 1 {
		t.Fatalf("straggler got %v, want exactly one targeted 2a", env.Outbox)
	}
	if _, ok := msgs[0].(P2a); !ok {
		t.Fatalf("straggler got %#v, want P2a", msgs[0])
	}
	if len(env.Outbox) != 1 {
		t.Fatalf("retransmit must be targeted, not broadcast: %v", env.Outbox)
	}
}

func TestPhase2aAcceptanceBroadcastsPhase2b(t *testing.T) {
	p, env := boot(t, 1, Config{})
	b := consensus.BallotFor(1, 0, n5)
	p.HandleMessage(0, P2a{Bal: b, Val: "v"})
	if p.st.ABal != b || p.st.AVal != "v" {
		t.Fatalf("acceptance not recorded: %+v", p.st)
	}
	if env.BroadcastsOf("p2b") != 1 {
		t.Fatalf("2b broadcasts = %d, want 1 (everyone is a learner)", env.BroadcastsOf("p2b"))
	}
}

func TestStalePhase2aIgnored(t *testing.T) {
	p, env := boot(t, 1, Config{})
	p.HandleMessage(2, P1a{Bal: consensus.BallotFor(2, 2, n5)}) // mbal → session 2
	env.ClearOutbox()
	p.HandleMessage(0, P2a{Bal: consensus.BallotFor(1, 0, n5), Val: "v"})
	if p.st.ABal != consensus.NoBallot {
		t.Fatal("stale 2a was accepted")
	}
	if env.CountType("p2b") != 0 {
		t.Fatal("stale 2a produced 2b")
	}
}

func TestDecideOnMajorityOfMatchingPhase2b(t *testing.T) {
	p, env := boot(t, 1, Config{})
	b := consensus.BallotFor(1, 0, n5)
	p.HandleMessage(0, P2b{Bal: b, Val: "v"})
	p.HandleMessage(2, P2b{Bal: b - 1, Val: "w"}) // different ballot: no count
	p.HandleMessage(3, P2b{Bal: b, Val: "v"})
	if _, decided := env.Decided(); decided {
		t.Fatal("decided with only 2 matching 2b")
	}
	p.HandleMessage(4, P2b{Bal: b, Val: "v"})
	v, decided := env.Decided()
	if !decided || v != "v" {
		t.Fatalf("decision = (%q,%v), want (v,true)", v, decided)
	}
	// Deciding cancels protocol timers and announces.
	if env.BroadcastsOf("decided") != 1 {
		t.Fatal("decision not broadcast")
	}
	if _, armed := env.Timers[gossipTimer]; !armed {
		t.Fatal("gossip timer not armed after decision")
	}
}

func TestDecidedProcessAnswersEverythingWithDecision(t *testing.T) {
	p, env := boot(t, 1, Config{})
	p.HandleMessage(0, Decided{Val: "v"})
	env.ClearOutbox()
	p.HandleMessage(2, P1a{Bal: consensus.BallotFor(9, 2, n5)})
	msgs := env.SentTo(2)
	if len(msgs) != 1 {
		t.Fatalf("decided process sent %v, want one Decided", env.Outbox)
	}
	if d, ok := msgs[0].(Decided); !ok || d.Val != "v" {
		t.Fatalf("reply = %#v, want Decided{v}", msgs[0])
	}
	// And its ballot state is frozen.
	if p.session() == 9 {
		t.Fatal("decided process kept playing the session game")
	}
}

func TestHeartbeatOnlyWhenQuiet(t *testing.T) {
	p, env := boot(t, 0, Config{Eps: 5 * time.Millisecond})
	// Quiet period elapsed: heartbeat re-broadcasts 1a.
	env.Clock += 6 * time.Millisecond
	p.HandleTimer(heartbeatTimer)
	if env.BroadcastsOf("p1a") != 1 {
		t.Fatalf("quiet heartbeat sent %d p1a broadcasts, want 1", env.BroadcastsOf("p1a"))
	}
	env.ClearOutbox()
	// Recently announced (lastAnnounce == now): heartbeat stays silent.
	p.HandleTimer(heartbeatTimer)
	if env.CountType("p1a") != 0 {
		t.Fatal("heartbeat fired despite recent announcement")
	}
	// Heartbeat always re-arms itself.
	if env.Armings[heartbeatTimer] < 2 {
		t.Fatal("heartbeat did not re-arm")
	}
}

func TestRestartResumesBallotAndChosenValue(t *testing.T) {
	p, env := boot(t, 0, Config{})
	p.HandleTimer(sessionTimer)
	b := p.st.MBal
	for from := consensus.ProcessID(0); from < 3; from++ {
		p.HandleMessage(from, P1b{Bal: b, ABal: consensus.NoBallot})
	}
	if !p.st.Sent2a {
		t.Fatal("setup: 2a not sent")
	}

	// "Restart": fresh Process over the same store.
	factory := MustNew(Config{Delta: uDelta})
	p2 := factory(0, n5, "mine").(*Process)
	env2 := consensustest.New(0, n5)
	env2.Storage = env.Storage
	p2.Init(env2)

	if p2.st.MBal != b {
		t.Fatalf("restart lost mbal: %v, want %v", p2.st.MBal, b)
	}
	if !p2.st.Sent2a || p2.st.Chosen != "mine" {
		t.Fatalf("restart lost 2a record: %+v", p2.st)
	}
	// It re-announces 2a (same value), never a fresh choice.
	if env2.BroadcastsOf("p2a") != 1 {
		t.Fatalf("restart announced %d p2a broadcasts, want 1", env2.BroadcastsOf("p2a"))
	}
	if m := env2.SentTo(1)[0].(P2a); m.Val != "mine" || m.Bal != b {
		t.Fatalf("restart 2a = %#v, want same ballot and value", m)
	}
}

func TestContactsCountedOnlyForCurrentSession(t *testing.T) {
	p, _ := boot(t, 0, Config{})
	p.HandleMessage(1, P1a{Bal: consensus.BallotFor(1, 1, n5)}) // enter session 1
	if p.contacts.Len() != 2 {
		t.Fatalf("contacts = %d, want 2", p.contacts.Len())
	}
	// A session-0 message must not count toward session 1.
	p.HandleMessage(3, P1b{Bal: 3, ABal: consensus.NoBallot})
	if _, ok := p.contacts.Get(3); ok {
		t.Fatal("old-session message counted as a current-session contact")
	}
}

func TestEmitSessionSeries(t *testing.T) {
	p, env := boot(t, 0, Config{})
	p.HandleTimer(sessionTimer)
	p.HandleMessage(2, P1a{Bal: consensus.BallotFor(4, 2, n5)})
	got := env.Emitted["session"]
	if len(got) < 2 || got[len(got)-1] != 4 {
		t.Fatalf("session series = %v, want ... 4", got)
	}
	_ = p
}

// TestRepeatedStepsDoNotAllocate pins the steps a process repeats until TS
// at zero allocations: persisting durable state (the store copies it in
// place), answering a heartbeat phase 1a of an unchanged ballot, and, once
// decided, answering a straggler (both replies are boxed once).
func TestRepeatedStepsDoNotAllocate(t *testing.T) {
	p, env := boot(t, 1, Config{})
	if allocs := env.AllocsPerStep(p.persist); allocs != 0 {
		t.Errorf("persist allocated %.1f times, want 0", allocs)
	}
	var p1a consensus.Message = P1a{Bal: p.st.MBal}
	if allocs := env.AllocsPerStep(func() { p.HandleMessage(0, p1a) }); allocs != 0 {
		t.Errorf("answering a repeated P1a allocated %.1f times, want 0", allocs)
	}
	if got := env.SentTo(p.st.MBal.Owner(n5)); len(got) != 1 || got[0] != (P1b{Bal: p.st.MBal, ABal: consensus.NoBallot}) {
		t.Fatalf("the repeated P1a was answered with %v", got)
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
