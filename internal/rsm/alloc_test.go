package rsm_test

import (
	"runtime"
	"testing"

	"repro/internal/rsmbench"
	"repro/internal/scenario"
)

// slotAllocBudget bounds the allocations of one committed operation: the
// measured 17.517 plus 2 %. The count is exact on a given toolchain (the run
// is a seeded simulation), so the band is only room for a Go release to move
// it. It was 37.453 while the step still built per-slot strings, a gob
// snapshot and a text batch and cancelled timers in blanket;
// 22.394 while a retired slot still announced its decision and answered
// every straggler with a boxed Decided (−2.631) and a slot's store prefix
// and first key were two strings (−0.388); and 19.375 while modpaxos boxed
// its durable state for every persist and each P1b and Decided for every
// send (−1.858).
const slotAllocBudget = 17.87

// TestSteadyStateSlotAllocBudget holds what a committed operation allocates
// across the whole simulated stack — three replicas' rsm and modpaxos steps,
// the simulator, stable storage and the closed-loop clients — at batch 8,
// pipeline 4, the TestBatchPipelineMatrix shape. It is the marginal cost:
// the difference between a long and a short run of the same 32 clients, so
// cluster set-up cancels. A slot that formats a key per persist, decodes
// its batch at the proposer or cancels timers it never armed shows here as
// whole allocations per slot, far outside the band.
func TestSteadyStateSlotAllocBudget(t *testing.T) {
	mallocs := func(ops int) (uint64, int64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := rsmbench.Run(rsmbench.Config{
			Backend: scenario.BackendSim, Clients: 32, Ops: ops, Seed: 2,
			MaxBatch: 8, MaxInFlight: 4,
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Passed() {
			t.Fatalf("run failed: completed=%v violations=%v", res.Completed, res.Violations)
		}
		return after.Mallocs - before.Mallocs, res.TotalOps
	}
	mallocs(10) // warm caches (gob type info, plain-data type table)
	short, shortOps := mallocs(50)
	long, longOps := mallocs(250)
	perOp := float64(long-short) / float64(longOps-shortOps)
	t.Logf("%.3f allocs per committed op (%d over %d ops)", perOp, long-short, longOps-shortOps)
	// raceAllocAllowance is 0 unless the binary was built with -race.
	if budget := slotAllocBudget + raceAllocAllowance; perOp > budget {
		t.Fatalf("a committed op allocates %.3f times, budget %.3f — the per-slot path regressed", perOp, budget)
	}
}
