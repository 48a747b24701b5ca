package rsm

// Deterministic whole-stack test: the RSM replicas run on the discrete-
// event simulator under pre-stabilization loss. Client proposals are
// injected as messages; commands proposed before TS still commit after the
// network stabilizes, because every slot instance is a full modified-Paxos
// process with the paper's recovery machinery.

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/core/modpaxos"
	"repro/internal/sim"
	"repro/internal/simnet"
)

func simGroup(t *testing.T, seed int64, cfg simnet.Config) (*sim.Engine, *simnet.Network) {
	t.Helper()
	factory, err := New(Config{Paxos: modpaxos.Config{Delta: cfg.Delta, Rho: cfg.Rho}})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(seed)
	nw, err := simnet.New(eng, cfg, factory, make([]consensus.Value, cfg.N))
	if err != nil {
		t.Fatal(err)
	}
	return eng, nw
}

// replica fetches the typed RSM replica at a node.
func replica(t *testing.T, nw *simnet.Network, id consensus.ProcessID) *Replica {
	t.Helper()
	r, ok := nw.Node(id).Process().(*Replica)
	if !ok {
		t.Fatalf("node %d hosts %T", id, nw.Node(id).Process())
	}
	return r
}

func TestSimCommitsAcrossStabilization(t *testing.T) {
	const n = 3
	delta := 10 * time.Millisecond
	ts := 200 * time.Millisecond
	eng, nw := simGroup(t, 1, simnet.Config{
		N: n, Delta: delta, TS: ts, Policy: simnet.Chaos{DropProb: 0.7}, Rho: 0.01,
	})
	nw.Start()

	// Proposals injected before TS — their phase-2 traffic may be lost;
	// the slot instances must recover after stabilization.
	nw.Inject(20*time.Millisecond, 1, Leader(), ClientPropose{Cmd: "set a 1"})
	nw.Inject(40*time.Millisecond, 1, Leader(), ClientPropose{Cmd: "set b 2"})
	// And one injected after TS commits on the fast path.
	nw.Inject(ts+50*delta, 1, Leader(), ClientPropose{Cmd: "set a 3"})

	// With retries, commands may land in later slots than first assigned;
	// wait until every key is visible at every replica.
	done := eng.RunUntil(func() bool {
		for id := consensus.ProcessID(0); id < n; id++ {
			r := replica(t, nw, id)
			if _, ok := r.kv.Get("b"); !ok {
				return false
			}
			if v, ok := r.kv.Get("a"); !ok || v != "3" {
				return false
			}
		}
		return true
	}, 30*time.Second)
	if !done {
		for id := consensus.ProcessID(0); id < n; id++ {
			t.Logf("replica %d applied %d", id, replica(t, nw, id).Applied())
		}
		t.Fatal("log did not fully apply")
	}

	for id := consensus.ProcessID(0); id < n; id++ {
		r := replica(t, nw, id)
		if v, ok := r.kv.Get("b"); !ok || v != "2" {
			t.Fatalf("replica %d: b=(%q,%v), want 2", id, v, ok)
		}
	}
}

func TestSimReplicaRestartReappliesLog(t *testing.T) {
	const n = 3
	delta := 10 * time.Millisecond
	eng, nw := simGroup(t, 2, simnet.Config{N: n, Delta: delta, TS: 0})
	nw.Start()
	nw.Inject(delta, 1, Leader(), ClientPropose{Cmd: "set x 1"})
	nw.Inject(10*delta, 1, Leader(), ClientPropose{Cmd: "set y 2"})

	eng.RunUntil(func() bool { return replica(t, nw, 2).Applied() >= 2 }, 10*time.Second)

	// Crash and restart replica 2; its log must come back from stable
	// storage without any network traffic needed for the old slots.
	nw.CrashAt(2, eng.Now()+delta)
	nw.RestartAt(2, eng.Now()+5*delta)
	eng.Run(eng.Now() + 10*delta)

	r := replica(t, nw, 2)
	if r.Applied() < 2 {
		t.Fatalf("restarted replica applied %d slots, want ≥ 2", r.Applied())
	}
	if v, ok := r.kv.Get("y"); !ok || v != "2" {
		t.Fatalf("restarted replica: y=(%q,%v)", v, ok)
	}
}

func TestSimDeterministicLog(t *testing.T) {
	run := func() (int64, string) {
		const n = 3
		delta := 10 * time.Millisecond
		eng, nw := simGroup(t, 42, simnet.Config{
			N: n, Delta: delta, TS: 100 * time.Millisecond, Policy: simnet.Chaos{DropProb: 0.5},
		})
		nw.Start()
		nw.Inject(5*time.Millisecond, 1, Leader(), ClientPropose{Cmd: "set k v1"})
		nw.Inject(15*time.Millisecond, 1, Leader(), ClientPropose{Cmd: "set k v2"})
		eng.RunUntil(func() bool { return replica(t, nw, 0).Applied() >= 2 }, 30*time.Second)
		r := replica(t, nw, 0)
		v, _ := r.kv.Get("k")
		return r.Applied(), v
	}
	a1, v1 := run()
	a2, v2 := run()
	if a1 != a2 || v1 != v2 {
		t.Fatalf("nondeterministic RSM: (%d,%q) vs (%d,%q)", a1, v1, a2, v2)
	}
}

// voteLinks is a pre-TS policy with one fast link: messages between
// replicas 0 and 1 take δ/10, and everything else — to or from replica 2,
// and a message a replica addresses to itself — takes δ.
type voteLinks struct{}

// Fate implements simnet.Policy.
func (voteLinks) Fate(tx simnet.Transmission, _ *rand.Rand) simnet.Fate {
	if tx.From != tx.To && tx.From <= 1 && tx.To <= 1 {
		return simnet.Fate{Delay: tx.Delta / 10}
	}
	return simnet.Fate{Delay: tx.Delta}
}

// TestLeaderVoteIsLocal: the leader's own phase-2 vote costs no message
// delay. Its P2a reaches replica 1 in δ/10 and replica 1's P2b comes back in
// δ/10; with the leader's own P2b already counted that is a majority, so
// the slot decides δ/5 after the proposal. Were the leader's P2a and P2b to
// itself sent over the network, each would take δ here: the leader's second
// vote would be its own at 2δ, and it would learn the decision first from
// replica 1's Decided, at 1.2δ.
func TestLeaderVoteIsLocal(t *testing.T) {
	const n = 3
	delta := 10 * time.Millisecond
	eng, nw := simGroup(t, 1, simnet.Config{N: n, Delta: delta, TS: time.Minute, Policy: voteLinks{}})
	nw.Start()
	at := 5 * delta
	nw.Inject(at, 1, Leader(), ClientPropose{Cmd: "set a 1"})
	leader := replica(t, nw, Leader())
	if !eng.RunUntil(func() bool { return leader.Applied() > 0 }, at+10*delta) {
		t.Fatal("the leader never decided")
	}
	if got := eng.Now() - at; got != delta/5 {
		t.Fatalf("the leader decided %v after proposing, want δ/5 = %v", got, delta/5)
	}
}
