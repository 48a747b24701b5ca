// Restart: the paper's process-restart guarantee (§4). A process crashes
// before stabilization and restarts long after the others decided; it must
// decide within O(δ) of its restart, resuming from stable storage.
//
//	go run ./examples/restart
package main

import (
	"fmt"
	"log"
	"time"

	"repro"
)

func main() {
	delta := 10 * time.Millisecond
	ts := 200 * time.Millisecond

	fmt.Println("Process 4 crashes at t=50ms (before TS) and restarts at several")
	fmt.Println("offsets after stabilization; recovery time must stay O(δ).")
	fmt.Println()
	fmt.Printf("%-24s  %-14s  %s\n", "restart time", "recovery", "in δ")

	for _, offsetDelta := range []int{2, 10, 50, 200} {
		back := repro.AfterTS(float64(offsetDelta))
		restartAt := back.Resolve(delta, ts)
		res, err := repro.Run(repro.Config{
			Protocol: repro.ModifiedPaxos,
			N:        5, Delta: delta, TS: ts, Rho: 0.01, Seed: 3,
			Restarts: []repro.Restart{
				{Proc: 4, CrashAt: repro.AtAbs(50 * time.Millisecond), RestartAt: back},
			},
			Horizon: restartAt + time.Second,
		})
		if err != nil {
			log.Fatal(err)
		}
		if res.Violation != nil {
			log.Fatalf("safety violation: %v", res.Violation)
		}
		rec, ok := res.RestartRecovery[4]
		if !ok {
			log.Fatalf("no recovery recorded for restart at %v", restartAt)
		}
		fmt.Printf("TS + %3d·δ (=%9v)  %-14v  %.1fδ\n",
			offsetDelta, restartAt, rec, float64(rec)/float64(delta))
	}

	fmt.Println()
	fmt.Println("However late the restart, recovery is a constant number of δ:")
	fmt.Println("decided processes answer every message with the decision, and")
	fmt.Println("gossip it every 2δ.")
}
