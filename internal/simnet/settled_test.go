package simnet_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/scenario"
	"repro/internal/simnet"
)

// TestSettledMatchesScan holds the O(1) stop condition against the node
// scan it replaced, after every event of every library regime — the
// crash/restart ones (restart-latecomer, churn-storm,
// coordinator-assassination) are where the counter could drift: a decision
// survives a crash, a process can decide inside Init, and a crashed process
// must stop counting the moment it goes down.
func TestSettledMatchesScan(t *testing.T) {
	var asked, settled atomic.Int64
	var mismatch atomic.Pointer[string]
	restore := simnet.SetSettledHook(func(nw *simnet.Network, got bool) {
		asked.Add(1)
		if got {
			settled.Add(1)
		}
		if want := nw.SettledByScan(); got != want && mismatch.Load() == nil {
			msg := fmt.Sprintf("at %v after %d events: Settled() = %v, scan = %v",
				nw.Engine().Now(), nw.Engine().Executed(), got, want)
			mismatch.Store(&msg)
		}
	})
	defer restore()

	for _, spec := range scenario.Library() {
		for _, n := range []int{5, 33} {
			spec.N = n
			spec.Seeds = 2
			if _, err := scenario.Run(spec); err != nil {
				t.Fatalf("%s n=%d: %v", spec.Name, n, err)
			}
			if m := mismatch.Load(); m != nil {
				t.Fatalf("%s n=%d: %s", spec.Name, n, *m)
			}
		}
	}
	if asked.Load() == 0 || settled.Load() == 0 {
		t.Fatalf("hook saw %d answers, %d settled: the run loops no longer go through Settled", asked.Load(), settled.Load())
	}
	t.Logf("%d answers compared", asked.Load())
}
