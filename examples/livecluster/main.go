// Livecluster: the same modified-Paxos code running on real goroutines and
// wall-clock timers. The in-memory network is unstable (lossy, arbitrary
// delays) for the first 400ms, then stabilizes with δ=20ms — live eventual
// synchrony. One process is crashed during the unstable period and
// restarted after the others decided.
//
//	go run ./examples/livecluster
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/live"
	"repro/internal/protocol"

	// Registers the built-in protocols; this example skips the harness,
	// which is what usually links them in.
	_ "repro/internal/protocol/all"
)

func main() {
	const n = 5
	delta := 20 * time.Millisecond
	unstable := 400 * time.Millisecond

	transport := live.NewMemTransport(live.MemTransportConfig{
		MaxDelay:       delta,
		StabilizeAfter: unstable,
		LossProb:       0.6,
	})
	proposals := make([]consensus.Value, n)
	for i := range proposals {
		proposals[i] = consensus.Value(fmt.Sprintf("proposal-of-p%d", i))
	}
	d, err := protocol.Get("modpaxos")
	if err != nil {
		log.Fatal(err)
	}
	factory, err := d.Build(protocol.Params{Delta: delta})
	if err != nil {
		log.Fatal(err)
	}
	cluster, err := live.NewCluster(
		live.Config{N: n, Delta: delta, Transport: transport},
		factory,
		proposals,
	)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := cluster.Stop(); err != nil {
			log.Printf("stop: %v", err)
		}
	}()

	fmt.Printf("5 goroutine processes; network unstable (60%% loss) for %v, then δ=%v\n", unstable, delta)
	start := time.Now()
	cluster.Start()

	// Crash p4 during instability; bring it back after the rest decided.
	time.Sleep(100 * time.Millisecond)
	cluster.Crash(4)
	fmt.Printf("t=%-8v crashed p4\n", time.Since(start).Round(time.Millisecond))

	waitFor := []consensus.ProcessID{0, 1, 2, 3}
	for !cluster.Checker().AllDecided(waitFor) {
		if err := cluster.Checker().Violation(); err != nil {
			log.Fatalf("safety violation: %v", err)
		}
		if time.Since(start) > 30*time.Second {
			log.Fatal("timed out waiting for majority")
		}
		time.Sleep(time.Millisecond)
	}
	fmt.Printf("t=%-8v majority decided\n", time.Since(start).Round(time.Millisecond))

	cluster.Restart(4)
	restartAt := time.Since(start)
	fmt.Printf("t=%-8v restarted p4\n", restartAt.Round(time.Millisecond))
	if _, err := cluster.WaitDecided(4, 10*time.Second); err != nil {
		log.Fatal(err)
	}
	rec := time.Since(start) - restartAt
	fmt.Printf("t=%-8v p4 decided — %v (%.1fδ) after its restart\n",
		time.Since(start).Round(time.Millisecond), rec.Round(time.Millisecond), float64(rec)/float64(delta))

	decisions := cluster.Checker().Decisions()
	sort.Slice(decisions, func(i, j int) bool { return decisions[i].At < decisions[j].At })
	fmt.Println()
	for _, d := range decisions {
		fmt.Printf("p%d decided %q at its local +%v\n", d.Proc, d.Value, d.At.Round(time.Millisecond))
	}
}
