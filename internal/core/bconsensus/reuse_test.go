package bconsensus

import (
	"reflect"
	"testing"

	"repro/internal/core/consensus"
	"repro/internal/core/consensus/consensustest"
)

// TestReuseIsInvisible: a fresh process that took over the storage of a
// spare — a process at n = 17 with a round-0 delivery behind it, stage-2
// and stage-3 votes in its tallies and w-abcasts still held back — sends, arms and
// decides on a script at n = 5 exactly what a process that never reused
// anything does. A queue kept with its held messages would deliver the
// spare's w-abcast first. (B-Consensus has no prepared start.)
func TestReuseIsInvisible(t *testing.T) {
	spareEnv := consensustest.New(0, 17)
	spare := MustNew(Config{Delta: uDelta})(0, 17, "spare").(*Process)
	spare.Init(spareEnv)
	deliverWab(spare, spareEnv, 3, Wab{LC: 1, Round: 0, Est: "spare"})
	for from := consensus.ProcessID(1); from < 17; from += 2 {
		spare.HandleMessage(from, First{LC: 10 + uint64(from), Round: 0, Est: "spare"})
		spare.HandleMessage(from, Wab{LC: 50 + uint64(from), Round: 0, Est: "held"})
	}
	spare.HandleMessage(2, Second{LC: 70, Round: 0, Est: "w", HasV: true, V: "w"})
	spare.HandleMessage(4, Second{LC: 71, Round: 0, Est: "w", HasV: true, V: "w"})
	if spare.hb.Len() == 0 || spare.firstVotes.Len() == 0 || spare.secondVotes.Len() == 0 || len(spareEnv.Decisions) != 0 {
		t.Fatalf("spare not mid-round: %d held, %d + %d votes, decisions %v",
			spare.hb.Len(), spare.firstVotes.Len(), spare.secondVotes.Len(), spareEnv.Decisions)
	}

	script := func(p *Process) *consensustest.Env {
		env := consensustest.New(0, n5)
		p.Init(env)
		deliverWab(p, env, 1, Wab{LC: 3, Round: 0, Est: "w"})
		for from := consensus.ProcessID(0); from < 3; from++ {
			p.HandleMessage(from, First{LC: 20 + uint64(from), Round: 0, Est: "w"})
		}
		for from := consensus.ProcessID(0); from < 3; from++ {
			p.HandleMessage(from, Second{LC: 30 + uint64(from), Round: 0, Est: "w", HasV: true, V: "w"})
		}
		p.HandleMessage(4, Wab{LC: 40, Round: 0, Est: "late"})
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
	if v, ok := want.Decided(); !ok || v != "w" {
		t.Fatalf("script decided %q, %v; want w", v, ok)
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
