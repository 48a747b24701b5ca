package modpaxos

import (
	"reflect"
	"testing"

	"repro/internal/core/consensus"
	"repro/internal/core/consensus/consensustest"
)

// TestReuseIsInvisible: a fresh process that took over the storage of a
// spare — a prepared process at n = 17 that moved on to its own ballot in
// session 2, with phase 1b and phase 2b of other processes in its tallies —
// sends, arms and decides on a script at n = 5 without Prepared exactly
// what a process that never reused anything does. A tally kept with its old
// contents would count those answers and send phase 2a, or decide, early.
func TestReuseIsInvisible(t *testing.T) {
	spareEnv := consensustest.New(0, 17)
	spare := MustNew(Config{Delta: uDelta, Prepared: true})(0, 17, "spare").(*Process)
	spare.Init(spareEnv) // owner of the prepared ballot: phase 2a at once
	for from := consensus.ProcessID(2); from < 17; from += 2 {
		spare.HandleMessage(from, P2b{Bal: spare.st.MBal, Val: "spare"})
	}
	spare.HandleTimer(sessionTimer) // a majority of session-1 contacts
	b := spare.st.MBal
	for from := consensus.ProcessID(1); from < 15; from += 2 {
		spare.HandleMessage(from, P1b{Bal: b, ABal: consensus.NoBallot})
	}
	spare.HandleMessage(1, P2b{Bal: 0, Val: "mine"})
	spare.HandleMessage(3, P2b{Bal: 0, Val: "mine"})
	if b != consensus.BallotFor(2, 0, 17) || spare.p1bs.Len() != 7 || spare.p2bs.Len() != 10 || len(spareEnv.Decisions) != 0 {
		t.Fatalf("spare not mid-ballot: ballot %v, %d phase 1b, %d phase 2b, decisions %v",
			b, spare.p1bs.Len(), spare.p2bs.Len(), spareEnv.Decisions)
	}

	factory := MustNew(Config{Delta: uDelta})
	reused := factory(0, n5, "mine").(*Process)
	reused.Reuse(spare)
	if !reflect.ValueOf(*spare).IsZero() {
		t.Fatal("the spare kept its storage")
	}
	sameAsFresh(t, reused, factory(0, n5, "mine").(*Process))
}

// TestRecycleIsInvisible: a process recycled in place in the middle of a
// session it adopted — its session timer expired, Start Phase 1 waiting for
// a majority of contacts, a phase 2b in its tally — sends, arms and decides
// on the script what a fresh process does. Kept, the expired timer alone
// would start phase 1 at the script's first message.
func TestRecycleIsInvisible(t *testing.T) {
	factory := MustNew(Config{Delta: uDelta})
	old := factory(0, n5, "old").(*Process)
	old.Init(consensustest.New(0, n5))
	b := consensus.BallotFor(1, 1, n5)
	old.HandleMessage(1, P1a{Bal: b}) // session 1: contacts 0 and 1
	old.HandleMessage(1, P2b{Bal: b, Val: "old"})
	old.HandleTimer(sessionTimer)
	if !old.timerExpired || old.st.MBal != b || old.p2bs.Len() != 1 {
		t.Fatalf("process not waiting in session 1: timer expired %v, ballot %v, %d phase 2b", old.timerExpired, old.st.MBal, old.p2bs.Len())
	}
	old.Recycle("mine")
	sameAsFresh(t, old, factory(0, n5, "mine").(*Process))
}

// sameAsFresh runs the script on a process that reused storage and on a
// fresh one, and compares what they did.
func sameAsFresh(t *testing.T, reused, fresh *Process) {
	t.Helper()
	got, want := reuseScript(reused), reuseScript(fresh)
	if v, ok := want.Decided(); !ok || v != fresh.proposal {
		t.Fatalf("script decided %q, %v; want %q", v, ok, fresh.proposal)
	}
	for _, f := range []struct {
		what      string
		got, want any
	}{
		{"sends", got.Outbox, want.Outbox},
		{"timers", got.Timers, want.Timers},
		{"armings", got.Armings, want.Armings},
		{"cancels", got.Canceled, want.Canceled},
		{"decisions", got.Decisions, want.Decisions},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Errorf("reused process %s %v, fresh %v", f.what, f.got, f.want)
		}
	}
}

// reuseScript has process 0 of 5 win ballot 0 with its own proposal, decide
// it, and answer a straggler and a P1a, then gossip.
func reuseScript(p *Process) *consensustest.Env {
	env := consensustest.New(0, n5)
	p.Init(env) // ballot 0, its own
	for from := consensus.ProcessID(0); from < 3; from++ {
		p.HandleMessage(from, P1b{Bal: 0, ABal: consensus.NoBallot})
	}
	p.HandleMessage(4, P1b{Bal: 0, ABal: consensus.NoBallot}) // a straggler
	for from := consensus.ProcessID(2); from < 5; from++ {
		p.HandleMessage(from, P2b{Bal: 0, Val: p.proposal})
	}
	p.HandleMessage(1, P1a{Bal: 0})
	p.HandleTimer(gossipTimer)
	return env
}
