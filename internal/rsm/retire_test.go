package rsm

// Retirement is silence. These tests drive one follower by hand against the
// scripted environment, then a whole simulated group, and hold the three
// halves of that sentence: a retired slot announces nothing and arms nothing,
// it answers only a peer that is asking, and a slot that cannot retire yet
// (decided above a gap) behaves as before.

import (
	"slices"
	"testing"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/core/consensus/consensustest"
	"repro/internal/core/modpaxos"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// handReplica returns replica id of 3, initialised against a scripted
// environment whose outbox is empty again.
func handReplica(t *testing.T, id consensus.ProcessID, cfg Config) (*Replica, *consensustest.Env) {
	t.Helper()
	cfg.Paxos.Delta = 10 * time.Millisecond
	factory, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	env := consensustest.New(id, 3)
	r := factory(id, 3, "").(*Replica)
	r.Init(env)
	env.ClearOutbox()
	return r, env
}

// preparedBallot is the ballot every slot instance opens at.
var preparedBallot = consensus.BallotFor(1, 0, 3)

// decideSlot walks a follower through one slot's phase 2: the leader's P2a,
// then the leader's P2b, which with the follower's own (delivered locally)
// makes a majority.
func decideSlot(r *Replica, slot int64, v consensus.Value) {
	r.HandleMessage(0, SlotMsg{Slot: slot, Inner: modpaxos.P2a{Bal: preparedBallot, Val: v}})
	r.HandleMessage(0, SlotMsg{Slot: slot, Inner: modpaxos.P2b{Bal: preparedBallot, Val: v}})
}

// slotTimers lists the armed timers of one slot's block.
func slotTimers(env *consensustest.Env, slot int64) []consensus.TimerID {
	var ids []consensus.TimerID
	for id := range env.Timers {
		if int64(id)/timersPerSlot-1 == slot {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

// TestRetiredSlotAnswersOnlyAskers: a P1a comes from an instance that has
// not decided and a P2a from an owner still proposing, so each gets the
// logged value, once; a P1b, a P2b or a Decided is nobody's question and gets
// nothing; below the snapshot horizon there is no record to answer from.
func TestRetiredSlotAnswersOnlyAskers(t *testing.T) {
	r, env := handReplica(t, 1, Config{SnapshotEvery: 2})
	for slot, v := range []consensus.Value{"set a 0", "set a 1", "set a 2"} {
		decideSlot(r, int64(slot), v)
	}
	if r.Applied() != 3 || r.snapBase != 2 || len(r.slots) != 0 {
		t.Fatalf("applied %d, snapshot horizon %d, %d live instances; want 3, 2, 0", r.Applied(), r.snapBase, len(r.slots))
	}
	higher := consensus.BallotFor(2, 2, 3)
	for _, tc := range []struct {
		name     string
		from     consensus.ProcessID
		slot     int64
		inner    consensus.Message
		answered bool
	}{
		{"P1a", 2, 2, modpaxos.P1a{Bal: higher}, true},
		{"P2a", 0, 2, modpaxos.P2a{Bal: preparedBallot, Val: "set a 2"}, true},
		{"P1b", 2, 2, modpaxos.P1b{Bal: preparedBallot, ABal: consensus.NoBallot}, false},
		{"P2b", 2, 2, modpaxos.P2b{Bal: preparedBallot, Val: "set a 2"}, false},
		{"Decided", 2, 2, modpaxos.Decided{Val: "set a 2"}, false},
		{"P1a below the snapshot horizon", 2, 1, modpaxos.P1a{Bal: higher}, false},
		{"P2a below the snapshot horizon", 0, 0, modpaxos.P2a{Bal: preparedBallot, Val: "set a 0"}, false},
	} {
		env.ClearOutbox()
		r.HandleMessage(tc.from, SlotMsg{Slot: tc.slot, Inner: tc.inner})
		var want []consensustest.Sent
		if tc.answered {
			want = []consensustest.Sent{{To: tc.from, Msg: SlotMsg{Slot: 2, Inner: modpaxos.Decided{Val: "set a 2"}}}}
		}
		if !slices.Equal(env.Outbox, want) {
			t.Errorf("%s: sent %v, want %v", tc.name, env.Outbox, want)
		}
		if len(r.slots) != 0 {
			t.Fatalf("%s brought an instance back: %d live", tc.name, len(r.slots))
		}
	}
}

// TestRetiredSlotDoesNotAnswerItself: a peer's Decided for a slot this
// replica has not opened yet opens the instance, which queues its opening P1a
// to itself, and decides, applies and retires it in the same event. The P1a
// is delivered after the slot retired; the retired slot must not answer its
// own replica, or the answer would cross the network to a replica that holds
// it already.
func TestRetiredSlotDoesNotAnswerItself(t *testing.T) {
	r, env := handReplica(t, 1, Config{})
	r.HandleMessage(0, SlotMsg{Slot: 0, Inner: modpaxos.Decided{Val: "set a 0"}})
	if r.Applied() != 1 || len(r.slots) != 0 {
		t.Fatalf("applied %d with %d live instances, want 1 and 0", r.Applied(), len(r.slots))
	}
	if self := env.SentTo(r.id); len(self) != 0 {
		t.Fatalf("the replica sent itself %v over the network", self)
	}
}

// TestSlotDecidedAboveGapKeepsAnnouncing: slot 1 decides while slot 0 is
// open, so it cannot apply: it announces its decision and keeps one timer,
// the gossip timer, which announces again — the one time gossip helps. When
// slot 0 decides both apply; slot 0, retired inside its own Decide, announces
// nothing and arms nothing, and slot 1's gossip timer is cancelled. An
// announcement is one Decided per peer: the replica's own copy is delivered
// locally, and it stood at one per replica (env.NN) until self-addressed
// slot messages stopped crossing the network.
func TestSlotDecidedAboveGapKeepsAnnouncing(t *testing.T) {
	r, env := handReplica(t, 1, Config{})
	decideSlot(r, 1, "set b 1")
	if _, live := r.slots[1]; !live || r.Applied() != 0 {
		t.Fatalf("slot 1 live: %v, applied %d; want a live instance above the gap", live, r.Applied())
	}
	peers := env.NN - 1
	if n := env.CountType("rsm-decided"); n != peers {
		t.Fatalf("a slot decided above a gap sent %d Decided, want one per peer (%d)", n, peers)
	}
	armed := slotTimers(env, 1)
	if len(armed) != 1 {
		t.Fatalf("slot 1 holds timers %v armed, want the gossip timer only", armed)
	}
	gossip := armed[0]
	env.ClearOutbox()
	r.HandleTimer(gossip)
	if n := env.CountType("rsm-decided"); n != peers || len(env.Outbox) != peers || env.Armings[gossip] != 2 {
		t.Fatalf("gossip timer sent %v and was armed %d times; want one Decided per peer and a re-arm", env.Outbox, env.Armings[gossip])
	}

	env.ClearOutbox()
	decideSlot(r, 0, "set a 0")
	if r.Applied() != 2 || len(r.slots) != 0 {
		t.Fatalf("applied %d with %d live instances, want 2 and 0", r.Applied(), len(r.slots))
	}
	if n := env.CountType("rsm-decided"); n != 0 {
		t.Errorf("an in-order slot sent %d Decided after it retired, want silence", n)
	}
	if a, b := slotTimers(env, 0), slotTimers(env, 1); len(a)+len(b) != 0 {
		t.Errorf("timers left armed after retirement: slot 0 %v, slot 1 %v", a, b)
	}
	if n := env.Armings[gossip-timersPerSlot]; n != 0 {
		t.Errorf("slot 0 armed its gossip timer %d times after retiring", n)
	}
}

// timerSpy counts the slot-block timers handed to a replica, and those among
// them whose slot the replica no longer holds: events nobody handles.
type timerSpy struct {
	*Replica
	fired, stray *int
}

func (s timerSpy) HandleTimer(id consensus.TimerID) {
	if slot := int64(id)/timersPerSlot - 1; slot >= 0 {
		*s.fired++
		if _, live := s.slots[slot]; !live {
			*s.stray++
		}
	}
	s.Replica.HandleTimer(id)
}

// TestNoTimerFiresForRetiredSlot: over 240 in-order slots no replica is ever
// handed a timer for a slot it has retired. modpaxos.decide arms its gossip
// timer after Decide has applied and retired the slot; before a retired
// environment refused SetTimer that was one ignored event per slot per
// replica.
func TestNoTimerFiresForRetiredSlot(t *testing.T) {
	const n, slots = 3, 240
	delta := 10 * time.Millisecond
	factory, err := New(Config{Paxos: modpaxos.Config{Delta: delta}, MaxBatch: 1, MaxInFlight: 4})
	if err != nil {
		t.Fatal(err)
	}
	var fired, stray int
	replicas := make([]*Replica, n)
	spied := func(id consensus.ProcessID, n int, v consensus.Value) consensus.Process {
		replicas[id] = factory(id, n, v).(*Replica)
		return timerSpy{Replica: replicas[id], fired: &fired, stray: &stray}
	}
	eng := sim.NewEngine(11)
	nw, err := simnet.New(eng, simnet.Config{N: n, Delta: delta}, spied, make([]consensus.Value, n))
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	for k := 0; k < slots; k++ {
		nw.Inject(delta+time.Duration(k)*delta/4, 1, Leader(), ClientPropose{Cmd: "op"})
	}
	if !eng.RunUntil(func() bool {
		return replicas[0].Applied() >= slots && replicas[1].Applied() >= slots && replicas[2].Applied() >= slots
	}, time.Minute) {
		t.Fatalf("applied %d/%d/%d of %d slots", replicas[0].Applied(), replicas[1].Applied(), replicas[2].Applied(), slots)
	}
	eng.Run(eng.Now() + 10*delta) // several gossip intervals
	if fired == 0 {
		t.Fatal("no slot timer fired at all: the run does not exercise the timer path")
	}
	if stray != 0 {
		t.Fatalf("%d of %d slot timers fired for a slot their replica had retired", stray, fired)
	}
}
