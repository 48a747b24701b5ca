package simnet_test

import (
	"testing"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/core/modpaxos"
	"repro/internal/rsm"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// TestNodeKeepsOnlyReusersAsSpares: a node keeps a crashed process as the
// spare for its restart only if the process is a consensus.Reuser (a
// modified-Paxos process), hands it to the restarted process, and then
// keeps nothing; a crashed rsm replica, which reuses nothing, leaves no
// spare behind. An arena node keeps the last run's process for the next
// run's.
func TestNodeKeepsOnlyReusersAsSpares(t *testing.T) {
	const delta = 10 * time.Millisecond
	paxos := modpaxos.MustNew(modpaxos.Config{Delta: delta})
	replicas, err := rsm.New(rsm.Config{Paxos: modpaxos.Config{Delta: delta}})
	if err != nil {
		t.Fatal(err)
	}
	arena := simnet.NewArena()
	build := func(factory consensus.Factory) (*sim.Engine, *simnet.Network) {
		eng := arena.Engine(1)
		nw, err := simnet.New(eng, simnet.Config{N: 3, Delta: delta, Arena: arena}, factory, make([]consensus.Value, 3))
		if err != nil {
			t.Fatal(err)
		}
		return eng, nw
	}

	eng, nw := build(paxos)
	nw.Start()
	node := nw.Node(1)
	crashed := node.Process()
	nw.CrashAt(1, 5*delta)
	nw.RestartAt(1, 10*delta)
	eng.Run(7 * delta)
	if node.Spare() != crashed {
		t.Fatalf("crashed modpaxos process: spare %p, want the process %p", node.Spare(), crashed)
	}
	eng.Run(12 * delta)
	if node.Spare() != nil || node.Process() == nil || node.Process() == crashed {
		t.Fatalf("after the restart: spare %v, process %p (crashed %p); want no spare and a new process",
			node.Spare(), node.Process(), crashed)
	}
	last := node.Process()
	eng, nw = build(replicas)
	if nw.Node(1) != node || node.Spare() != last {
		t.Fatalf("arena node for the next run: spare %p, want the last run's process %p", node.Spare(), last)
	}
	nw.Start() // the replica ignores the spare, and the node drops it
	if node.Spare() != nil {
		t.Fatalf("after the next run's start: spare %T, want none", node.Spare())
	}
	nw.CrashAt(1, 5*delta)
	eng.Run(7 * delta)
	if node.Spare() != nil {
		t.Fatalf("crashed rsm replica left a spare: %T", node.Spare())
	}
}
