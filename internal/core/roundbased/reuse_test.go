package roundbased

import (
	"reflect"
	"testing"

	"repro/internal/core/consensus"
	"repro/internal/core/consensus/consensustest"
)

// TestReuseIsInvisible: a fresh process that took over the storage of a
// spare — the round-0 coordinator at n = 17 with half a quorum of
// estimates, round entries and acks in its tallies — sends, arms and
// decides on a script at n = 5 exactly what a process that never reused
// anything does. (The round-based core has no prepared start.)
func TestReuseIsInvisible(t *testing.T) {
	spareEnv := consensustest.New(0, 17)
	spare := MustNew(Config{Delta: uDelta})(0, 17, "spare").(*Process)
	spare.Init(spareEnv)
	for from := consensus.ProcessID(1); from < 17; from += 2 {
		spare.HandleMessage(from, InRound{Round: 0})
		spare.HandleMessage(from, Estimate{Round: 0, Est: "spare", TSRound: -1})
		spare.HandleMessage(from, Ack{Round: 0})
	}
	if spare.estimates.Len() == 0 || len(spareEnv.Decisions) != 0 {
		t.Fatalf("spare not mid-round: %d estimates, decisions %v", spare.estimates.Len(), spareEnv.Decisions)
	}

	script := func(p *Process) *consensustest.Env {
		env := consensustest.New(0, n5)
		p.Init(env)
		for from := consensus.ProcessID(0); from < 3; from++ {
			p.HandleMessage(from, Estimate{Round: 0, Est: "v" + consensus.Value('0'+rune(from)), TSRound: -1})
		}
		for from := consensus.ProcessID(1); from < 4; from++ {
			p.HandleMessage(from, Ack{Round: 0})
		}
		p.HandleMessage(4, Estimate{Round: 0, Est: "v4", TSRound: -1})
		return env
	}
	factory := MustNew(Config{Delta: uDelta})
	want := script(factory(0, n5, "v0").(*Process))
	reused := factory(0, n5, "v0").(*Process)
	reused.Reuse(spare)
	if !reflect.ValueOf(*spare).IsZero() {
		t.Fatal("the spare kept its storage")
	}
	got := script(reused)
	if _, ok := want.Decided(); !ok {
		t.Fatal("script did not decide")
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
