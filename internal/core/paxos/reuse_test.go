package paxos

import (
	"reflect"
	"testing"

	"repro/internal/core/consensus"
	"repro/internal/core/consensus/consensustest"
	"repro/internal/leader"
)

// TestReuseIsInvisible: a fresh process that took over the storage of a
// spare — an elected leader at n = 17 halfway through phase 1, with phase 1b
// and phase 2b of other processes in its tallies — sends, arms and decides
// on a script at n = 5 exactly what a process that never reused anything
// does. A phase 2b tally kept with its old contents would decide early.
// (Traditional Paxos has no prepared start.)
func TestReuseIsInvisible(t *testing.T) {
	spareEnv := consensustest.New(0, 17)
	spare := New(Config{Delta: uDelta})(0, 17, "spare").(*Process)
	spare.Init(spareEnv)
	spare.HandleMessage(0, leader.Announce{Leader: 0})
	b := spare.st.MBal
	for from := consensus.ProcessID(1); from < 17; from += 2 {
		spare.HandleMessage(from, P1b{Bal: b, ABal: consensus.NoBallot})
		spare.HandleMessage(from, P2b{Bal: 7, Val: "other"})
	}
	if spare.p1bs.Len() == 0 || spare.p2bs.Len() == 0 || len(spareEnv.Decisions) != 0 {
		t.Fatalf("spare not mid-ballot: %d phase 1b, %d phase 2b, decisions %v",
			spare.p1bs.Len(), spare.p2bs.Len(), spareEnv.Decisions)
	}

	script := func(p *Process) *consensustest.Env {
		env := consensustest.New(0, n5)
		p.Init(env)
		p.HandleMessage(2, P2b{Bal: 7, Val: "other"}) // two of five: no decision
		p.HandleMessage(4, P2b{Bal: 7, Val: "other"})
		p.HandleMessage(0, leader.Announce{Leader: 0})
		b := p.st.MBal
		for from := consensus.ProcessID(0); from < 3; from++ {
			p.HandleMessage(from, P1b{Bal: b, ABal: consensus.NoBallot})
		}
		for from := consensus.ProcessID(0); from < 3; from++ {
			p.HandleMessage(from, P2b{Bal: b, Val: "mine"})
		}
		p.HandleMessage(3, P1a{Bal: b})
		p.HandleTimer(tickTimer)
		return env
	}
	factory := New(Config{Delta: uDelta})
	want := script(factory(0, n5, "mine").(*Process))
	reused := factory(0, n5, "mine").(*Process)
	reused.Reuse(spare)
	if !reflect.ValueOf(*spare).IsZero() {
		t.Fatal("the spare kept its storage")
	}
	got := script(reused)
	if v, ok := want.Decided(); !ok || v != "mine" {
		t.Fatalf("script decided %q, %v; want mine", v, ok)
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
