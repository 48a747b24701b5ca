package rsm

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/core/consensus/consensustest"
	"repro/internal/core/modpaxos"
	"repro/internal/live"
)

const delta = 20 * time.Millisecond

func newGroup(t *testing.T, n int, transport live.Transport) (*live.Cluster, *Client) {
	t.Helper()
	factory, err := New(Config{Paxos: modpaxos.Config{Delta: delta}})
	if err != nil {
		t.Fatal(err)
	}
	proposals := make([]consensus.Value, n)
	cluster, err := live.NewCluster(live.Config{N: n, Delta: delta, Transport: transport}, factory, proposals)
	if err != nil {
		t.Fatal(err)
	}
	tr := transport
	if tr == nil {
		t.Fatal("transport required")
	}
	client := NewClient(consensus.ProcessID(n), tr)
	client.SetTimeout(10 * time.Second)
	t.Cleanup(func() { _ = cluster.Stop() })
	cluster.Start()
	return cluster, client
}

func TestCommitAndReadBack(t *testing.T) {
	transport := live.NewMemTransport(live.MemTransportConfig{MaxDelay: delta})
	_, client := newGroup(t, 3, transport)

	slot, err := client.Propose("set color blue")
	if err != nil {
		t.Fatal(err)
	}
	if slot != 0 {
		t.Fatalf("first command in slot %d, want 0", slot)
	}
	for replica := consensus.ProcessID(0); replica < 3; replica++ {
		v, found, err := client.Get(replica, "color", slot+1)
		if err != nil {
			t.Fatalf("replica %d: %v", replica, err)
		}
		if !found || v != "blue" {
			t.Fatalf("replica %d: got (%q,%v), want (blue,true)", replica, v, found)
		}
	}
}

func TestSequentialCommandsApplyInOrder(t *testing.T) {
	transport := live.NewMemTransport(live.MemTransportConfig{MaxDelay: delta / 2})
	_, client := newGroup(t, 3, transport)

	var lastSlot int64
	for i := 0; i < 5; i++ {
		slot, err := client.Propose(consensus.Value(fmt.Sprintf("set k%d v%d", i, i)))
		if err != nil {
			t.Fatalf("command %d: %v", i, err)
		}
		if slot != int64(i) {
			t.Fatalf("command %d landed in slot %d", i, slot)
		}
		lastSlot = slot
	}
	// Overwrites apply in slot order.
	if _, err := client.Propose("set k0 final"); err != nil {
		t.Fatal(err)
	}
	lastSlot++
	for replica := consensus.ProcessID(0); replica < 3; replica++ {
		v, found, err := client.Get(replica, "k0", lastSlot+1)
		if err != nil {
			t.Fatal(err)
		}
		if !found || v != "final" {
			t.Fatalf("replica %d: k0=(%q,%v), want final", replica, v, found)
		}
	}
}

func TestCommitLatencyIsThreeDelaysStable(t *testing.T) {
	// The §4 stable-case claim, live: with phase 1 pre-executed, a commit
	// takes ~3 message delays. We allow generous scheduling slack but it
	// must be well below a full unprepared ballot (≥ 5 delays + session
	// timers).
	transport := live.NewMemTransport(live.MemTransportConfig{MaxDelay: delta})
	_, client := newGroup(t, 5, transport)

	// Warm up one command (creates instances lazily).
	if _, err := client.Propose("set warm up"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := client.Propose("set fast path"); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed > 8*delta {
		t.Errorf("stable-path commit took %v (%.1fδ), want ≈3δ", elapsed, float64(elapsed)/float64(delta))
	}
}

func TestRedirectFromFollower(t *testing.T) {
	transport := live.NewMemTransport(live.MemTransportConfig{MaxDelay: delta})
	_, client := newGroup(t, 3, transport)

	// Manually poke a follower; the client logic must follow the
	// redirect transparently (exercised by proposing through the normal
	// API after nudging the leader pointer).
	transport.Send(client.id, 2, ClientPropose{Cmd: "set x 1"})
	if _, err := client.Propose("set y 2"); err != nil {
		t.Fatal(err)
	}
	v, found, err := client.Get(0, "y", 0)
	if err != nil || !found || v != "2" {
		t.Fatalf("y = (%q,%v,%v), want 2", v, found, err)
	}
}

func TestLeaderRestartRecoversLog(t *testing.T) {
	transport := live.NewMemTransport(live.MemTransportConfig{MaxDelay: delta / 2})
	cluster, client := newGroup(t, 3, transport)

	if _, err := client.Propose("set a 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Propose("set b 2"); err != nil {
		t.Fatal(err)
	}
	cluster.Crash(0)
	time.Sleep(50 * time.Millisecond)
	cluster.Restart(0)

	// The restarted leader recovers its decided log from stable storage
	// and serves reads.
	v, found, err := client.Get(0, "a", 2)
	if err != nil || !found || v != "1" {
		t.Fatalf("after restart a = (%q,%v,%v), want 1", v, found, err)
	}
	// And accepts new proposals in fresh slots.
	slot, err := client.Propose("set c 3")
	if err != nil {
		t.Fatal(err)
	}
	if slot < 2 {
		t.Fatalf("post-restart command reused slot %d", slot)
	}
}

func TestRSMOverTCP(t *testing.T) {
	ids := []consensus.ProcessID{0, 1, 2, 3} // 3 replicas + 1 client
	transport, err := live.NewTCPTransport(ids)
	if err != nil {
		t.Fatal(err)
	}
	_, client := newGroup(t, 3, transport)
	if _, err := client.Propose("set net tcp"); err != nil {
		t.Fatal(err)
	}
	v, found, err := client.Get(1, "net", 1)
	if err != nil || !found || v != "tcp" {
		t.Fatalf("net = (%q,%v,%v), want tcp", v, found, err)
	}
	// The second write of user must apply after the first on every replica.
	var lastSlot int64
	for _, cmd := range []consensus.Value{"set user alice", "set theme dark", "set user bob"} {
		if lastSlot, err = client.Propose(cmd); err != nil {
			t.Fatal(err)
		}
	}
	for replica := consensus.ProcessID(0); replica < 3; replica++ {
		for key, want := range map[string]string{"user": "bob", "theme": "dark", "missing": ""} {
			v, found, err := client.Get(replica, key, lastSlot+1)
			if err != nil || found != (want != "") || v != want {
				t.Errorf("replica %d: %s = (%q,%v,%v), want %q", replica, key, v, found, err, want)
			}
		}
	}
}

func TestKVStoreApply(t *testing.T) {
	kv := NewKVStore()
	kv.Apply(0, "set a 1")
	kv.Apply(1, "not-a-set-command")
	kv.Apply(2, "set a 2")
	if v, ok := kv.Get("a"); !ok || v != "2" {
		t.Fatalf("a = (%q,%v), want 2", v, ok)
	}
	if _, ok := kv.Get("missing"); ok {
		t.Fatal("missing key found")
	}
	if log := kv.Log(); len(log) != 3 || log[1] != "not-a-set-command" {
		t.Fatalf("log = %v", log)
	}
}

func TestPrefixStoreIsolation(t *testing.T) {
	factory, err := New(Config{Paxos: modpaxos.Config{Delta: delta}})
	if err != nil {
		t.Fatal(err)
	}
	_ = factory
	// Direct prefixStore behaviour is covered through the storage tests;
	// here check namespacing via two slots of one replica group after a
	// couple of commits.
	transport := live.NewMemTransport(live.MemTransportConfig{MaxDelay: delta / 2})
	_, client := newGroup(t, 3, transport)
	if _, err := client.Propose("set p 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Propose("set q 2"); err != nil {
		t.Fatal(err)
	}
	v1, _, err := client.Get(0, "p", 2)
	if err != nil {
		t.Fatal(err)
	}
	v2, _, err := client.Get(0, "q", 2)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != "1" || v2 != "2" {
		t.Fatalf("p=%q q=%q, want 1/2", v1, v2)
	}
}

// TestProposerStopsAtMaxSlots: a slot message or a Beat can raise maxSeen to
// the last slot the log holds, and assignSlot skips every slot known to
// exist, so the proposer must stop there rather than hand out maxSlots, a
// slot every peer drops — the batch would strand and stay in flight.
func TestProposerStopsAtMaxSlots(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   Config
		heard consensus.Message
	}{
		{"slot message", Config{}, SlotMsg{Slot: maxSlots - 1, Inner: modpaxos.P1a{Bal: consensus.BallotFor(2, 1, 3)}}},
		{"Beat", Config{FailoverTimeout: time.Second}, Beat{MaxSeen: maxSlots - 1}},
	} {
		tc.cfg.Paxos.Delta = 10 * time.Millisecond
		factory, err := New(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		env := consensustest.New(0, 3)
		r := factory(0, 3, "").(*Replica)
		r.Init(env)
		r.HandleMessage(1, tc.heard)
		env.ClearOutbox()
		r.HandleMessage(3, ClientPropose{Client: 70, Seq: 1, Cmd: consensus.Value("op")})
		if len(r.pending) != 0 || r.InFlight() != 0 {
			t.Errorf("%s at slot %d: leader proposed %d slots, %d in flight; want none", tc.name, maxSlots-1, len(r.pending), r.InFlight())
		}
		for _, s := range env.Outbox {
			if m, ok := s.Msg.(SlotMsg); ok && m.Slot >= maxSlots {
				t.Errorf("%s: sent %v for slot %d, beyond the log", tc.name, m.Inner, m.Slot)
			}
		}
	}
}
