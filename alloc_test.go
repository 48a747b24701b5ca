package repro_test

// Allocation-regression tests for the simulator hot path. The engine-level
// zero-alloc invariants (schedule/cancel churn, steady-state Step, the
// delivery sink) are pinned in internal/sim; this file pins the end-to-end
// budget: a complete modified-Paxos run through the harness — engine,
// network, trace collector, safety checker, protocol state machines, and
// stable storage together. The budget is far above the engine's structural
// zero (protocols box messages, and each process's stored state is one
// allocation), but far below the
// pre-overhaul cost (~2100 allocs/run); a regression back to per-event or
// per-message allocation trips it immediately.

import (
	"testing"
	"time"

	"repro"
)

// allocBudgetFullRun bounds allocations for one N=5 modified-Paxos run
// (unstable start, TS=200ms) on a fresh engine: the measured 199 allocs/run
// plus 2 %. The count is exact on a given toolchain, so the band is only
// room for a Go release to move it; one allocation per message or per event
// is hundreds. The pooled event queue, closure-free routing, interned
// counters and plain-data stable storage brought it down from the
// pre-overhaul simulator's ~2100 to 392; dense tallies in place of the
// protocol's per-ballot maps took it to 354, and multicasts without a
// recipient vector to 328. Persisting through a pointer into the store's
// own copy, boxing an unchanged P1b or Decided once, and sizing tallies,
// the safety checker and the node list from N at first use took it to 199.
// Bytes per run are held by the benchmark (alloc_kb_per_op on sim_grid).
const allocBudgetFullRun = 203

// allocBudgetObservedRun bounds the same run with Observe on (phase spans,
// latency histograms). Observation adds bounded per-run structures — the
// span ring, interned histogram tables, a handful of per-process
// observations — never per-event or per-message allocation, so the budget
// is a fixed increment over the plain run, not a multiple of it.
const allocBudgetObservedRun = allocBudgetFullRun + 300

func TestSingleRunAllocBudget(t *testing.T) {
	cfg := repro.Config{
		Protocol: repro.ModifiedPaxos, N: 5,
		Delta: 10 * time.Millisecond, TS: 200 * time.Millisecond,
		Rho: 0.01, Seed: 7,
	}
	run := func() {
		res, err := repro.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Decided {
			t.Fatal("run did not decide")
		}
	}
	// raceAllocAllowance is 0 unless the binary was built with -race.
	const (
		budget         = allocBudgetFullRun + raceAllocAllowance
		observedBudget = allocBudgetObservedRun + raceAllocAllowance
	)
	run() // warm caches (gob type info, plain-data type table)
	allocs := testing.AllocsPerRun(20, run)
	if allocs > budget {
		t.Fatalf("full run allocated %.0f allocs, budget %d — the simulator hot path regressed",
			allocs, budget)
	}

	// The observability instrumentation must stay a disabled branch on this
	// path: the same budget holds, because Observe=false above already runs
	// every instrumented call site (spans, histograms) with collection off.
	// With Observe=true the cost is a bounded increment.
	cfg.Observe = true
	run()
	observed := testing.AllocsPerRun(20, run)
	if observed > observedBudget {
		t.Fatalf("observed run allocated %.0f allocs, budget %d — observation is no longer O(1) per run",
			observed, observedBudget)
	}
	t.Logf("plain %.0f allocs/run, observed %.0f", allocs, observed)
}
