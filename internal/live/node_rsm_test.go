package live_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/core/modpaxos"
	"repro/internal/live"
	"repro/internal/rsm"
)

// timerQuery asks a probed process for its node's timer counts.
type timerQuery struct{ reply chan [2]int }

func (timerQuery) Type() string { return "test-timer-query" }

// probed is a process that answers timerQuery on its node's loop and passes
// everything else on.
type probed struct {
	consensus.Process
	node *live.Node
}

func (p *probed) Init(env consensus.Environment) {
	p.node = env.(*live.Node)
	p.Process.Init(env)
}

func (p *probed) HandleMessage(from consensus.ProcessID, m consensus.Message) {
	if q, ok := m.(timerQuery); ok {
		armed, heap := p.node.TimerCounts()
		q.reply <- [2]int{armed, heap}
		return
	}
	p.Process.HandleMessage(from, m)
}

// TestNodeTimerTableEmptiesAfterRSMSlots is the leak in the shape that
// found it: every rsm slot arms timers under fresh IDs, and modpaxos arms
// its gossip timer once more after the slot has retired. Once the cluster
// is quiet no replica may hold any of them.
func TestNodeTimerTableEmptiesAfterRSMSlots(t *testing.T) {
	const replicas, slots = 3, 200
	const d = 2 * time.Millisecond
	transport, err := live.NewTCPTransport([]consensus.ProcessID{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := rsm.New(rsm.Config{Paxos: modpaxos.Config{Delta: d}})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := live.NewCluster(live.Config{N: replicas, Delta: d, Transport: transport},
		func(id consensus.ProcessID, n int, v consensus.Value) consensus.Process {
			return &probed{Process: inner(id, n, v)}
		}, make([]consensus.Value, replicas))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cluster.Stop() })
	cluster.Start()

	client := rsm.NewClient(replicas, transport)
	client.SetTimeout(10 * time.Second)
	var last int64
	for i := 0; i < slots; i++ {
		if last, err = client.Propose(consensus.Value(fmt.Sprintf("set k%d v", i))); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if last < slots-1 {
		t.Fatalf("%d operations filled only %d slots", slots, last+1)
	}

	counts := func(id consensus.ProcessID) [2]int {
		q := timerQuery{reply: make(chan [2]int, 1)}
		cluster.Node(id).Deliver(id, q)
		return <-q.reply
	}
	// The last slots' gossip timers fire one GossipInterval (2δ) after their
	// decisions; allow a generous multiple before calling it a leak.
	deadline := time.Now().Add(5 * time.Second)
	for id := consensus.ProcessID(0); id < replicas; id++ {
		for c := counts(id); c != [2]int{}; c = counts(id) {
			if time.Now().After(deadline) {
				t.Fatalf("replica %d still holds %d armed timers (%d heap entries) long after %d slots went quiet", id, c[0], c[1], last+1)
			}
			time.Sleep(d)
		}
	}
}
