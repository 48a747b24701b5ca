package repro_test

// Population-scale checks for the dynamics family: consensus times measured
// at n = 100, 1000, 5000 must be consistent with the predicted O(log n)
// round counts (arXiv:2103.10366 for usd, arXiv:2503.02426 for 3-majority
// and 2-choices). The runs go through the batched broadcast path and
// arena-style storage reuse — the same machinery the scenario sweeps use —
// so these tests double as end-to-end coverage for population-scale N.

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/simnet"
)

// dynDelta is δ for the population runs.
const dynDelta = 10 * time.Millisecond

// runDynamics executes one population run on a shared arena and returns the
// time of the last decision.
func runDynamics(t *testing.T, arena *simnet.Arena, proto harness.Protocol, n int, seed int64) time.Duration {
	t.Helper()
	res, err := harness.Run(harness.Config{
		Protocol:    proto,
		N:           n,
		Delta:       dynDelta,
		Seed:        seed,
		OpinionPool: 2,
		Arena:       arena,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("%s n=%d seed=%d: safety violation: %v", proto, n, seed, res.Violation)
	}
	if !res.Decided {
		t.Fatalf("%s n=%d seed=%d: population did not decide (last=%v)", proto, n, seed, res.LastDecision)
	}
	return res.LastDecision
}

// medianDecision runs three seeds and returns the median last-decision time.
func medianDecision(t *testing.T, arena *simnet.Arena, proto harness.Protocol, n int) time.Duration {
	t.Helper()
	times := make([]time.Duration, 0, 3)
	for seed := int64(1); seed <= 3; seed++ {
		times = append(times, runDynamics(t, arena, proto, n, seed))
	}
	for i := 1; i < len(times); i++ {
		for j := i; j > 0 && times[j] < times[j-1]; j-- {
			times[j], times[j-1] = times[j-1], times[j]
		}
	}
	return times[1]
}

// TestDynamicsLogScaling measures consensus time at a 50× population spread.
// O(log n) rounds (plus the O(log n) decision streak) predict roughly a
// log(5000)/log(100) ≈ 1.9× growth from n=100 to n=5000; any per-round
// linear component would show up as tens of ×. The assertion allows 6× —
// generous against round-count constants, impossible for linear growth.
func TestDynamicsLogScaling(t *testing.T) {
	sizes := []int{100, 1000, 5000}
	if testing.Short() {
		sizes = []int{100, 1000}
	}
	for _, proto := range []harness.Protocol{"usd", "3majority", "2choices"} {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			arena := simnet.NewArena()
			base := medianDecision(t, arena, proto, sizes[0])
			if base <= 0 {
				t.Fatalf("degenerate base consensus time %v", base)
			}
			for _, n := range sizes[1:] {
				d := medianDecision(t, arena, proto, n)
				ratio := float64(d) / float64(base)
				t.Logf("%s: n=%d consensus=%v (%.2f× the n=%d time %v)", proto, n, d, ratio, sizes[0], base)
				if ratio > 6 {
					t.Errorf("%s: consensus time grew %.1f× from n=%d to n=%d — inconsistent with O(log n)",
						proto, ratio, sizes[0], n)
				}
			}
		})
	}
}

// TestDynamicsUSDN1000AllocBudget holds the allocation columns of
// BenchmarkDynamicsUSDN1000 at three iterations: what a population sweep's
// worker does with a fresh arena — seeds 1, 2, 3 in turn, the first run
// paying for the arena. The counts repeat to within ten (48 321 allocations
// — ≈ 45 300 per warm run plus ≈ 9 000 once for the arena — and 2 431 600
// bytes per run); the budgets are those plus 2 % and 10 %.
func TestDynamicsUSDN1000AllocBudget(t *testing.T) {
	const allocBudget, byteBudget = 49288, 2676240
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	arena := simnet.NewArena()
	for seed := int64(1); seed <= 3; seed++ {
		runDynamics(t, arena, "usd", 1000, seed)
	}
	runtime.ReadMemStats(&after)
	allocs, bytes := (after.Mallocs-before.Mallocs)/3, (after.TotalAlloc-before.TotalAlloc)/3
	if allocs > allocBudget || bytes > byteBudget {
		t.Fatalf("usd n=1000: %d allocations, %d bytes per run; budget %d, %d",
			allocs, bytes, allocBudget, byteBudget)
	}
	t.Logf("usd n=1000: %d allocations, %d bytes per run", allocs, bytes)
}

// BenchmarkDynamicsUSDN1000 is the population-dynamics sweep point: one
// full undecided-state-dynamics run at n=1000 per op, on a shared arena —
// exactly the unit of work a population sweep executes per cell. Seeds
// rotate so the number is a cross-seed average, not one schedule's.
func BenchmarkDynamicsUSDN1000(b *testing.B) {
	arena := simnet.NewArena()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := harness.Run(harness.Config{
			Protocol:    "usd",
			N:           1000,
			Delta:       dynDelta,
			Seed:        int64(i%3) + 1,
			OpinionPool: 2,
			Arena:       arena,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Decided {
			b.Fatal("population did not decide")
		}
	}
}

// TestUSDPopulation5000WallClock is the acceptance check that a full
// undecided-state-dynamics run at n=5000 completes in seconds of wall
// clock, not minutes — the point of the batched broadcast fan-out.
func TestUSDPopulation5000WallClock(t *testing.T) {
	if testing.Short() {
		t.Skip("population run at n=5000 skipped in -short mode")
	}
	start := time.Now()
	last := runDynamics(t, simnet.NewArena(), "usd", 5000, 1)
	wall := time.Since(start)
	t.Logf("usd n=5000: virtual consensus at %v, wall clock %v", last, wall)
	if wall > time.Minute {
		t.Errorf("usd n=5000 took %v wall clock, want seconds", wall)
	}
}
