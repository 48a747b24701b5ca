// Kvstore: a replicated key-value store built from a sequence of
// modified-Paxos instances (internal/rsm) over loopback TCP — the setting
// of the paper's "Reducing Message Complexity" discussion: with phase 1
// pre-executed per slot, each command commits in three message delays in
// the stable case.
//
//	go run ./examples/kvstore
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/core/modpaxos"
	"repro/internal/live"
	"repro/internal/rsm"
)

func main() {
	const replicas = 3
	delta := 20 * time.Millisecond

	// 3 replica listeners + 1 client endpoint, all loopback TCP.
	ids := []consensus.ProcessID{0, 1, 2, 3}
	transport, err := live.NewTCPTransport(ids)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < replicas; i++ {
		fmt.Printf("replica %d listening on %s\n", i, transport.Addr(consensus.ProcessID(i)))
	}

	factory, err := rsm.New(rsm.Config{Paxos: modpaxos.Config{Delta: delta}})
	if err != nil {
		log.Fatal(err)
	}
	cluster, err := live.NewCluster(
		live.Config{N: replicas, Delta: delta, Transport: transport},
		factory,
		make([]consensus.Value, replicas),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer func() { _ = cluster.Stop() }()
	cluster.Start()

	client := rsm.NewClient(consensus.ProcessID(replicas), transport)
	client.SetTimeout(10 * time.Second)

	fmt.Println()
	commands := []consensus.Value{
		"set user alice",
		"set theme dark",
		"set user bob", // overwrite — must apply after slot 0
	}
	var lastSlot int64
	for _, cmd := range commands {
		start := time.Now()
		slot, err := client.Propose(cmd)
		if err != nil {
			log.Fatal(err)
		}
		lastSlot = slot
		fmt.Printf("committed %-16q to slot %d in %v (%.1fδ)\n",
			cmd, slot, time.Since(start).Round(time.Millisecond),
			float64(time.Since(start))/float64(delta))
	}

	fmt.Println()
	for _, key := range []string{"user", "theme", "missing"} {
		for replica := consensus.ProcessID(0); replica < replicas; replica++ {
			v, found, err := client.Get(replica, key, lastSlot+1)
			if err != nil {
				log.Fatal(err)
			}
			if found {
				fmt.Printf("replica %d: %s = %q\n", replica, key, v)
			} else {
				fmt.Printf("replica %d: %s unset\n", replica, key)
			}
		}
	}
	fmt.Println()
	fmt.Println("All replicas answer identically: one consensus instance per log slot,")
	fmt.Println("committed in ~3 message delays on the prepared fast path.")
}
