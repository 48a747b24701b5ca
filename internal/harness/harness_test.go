package harness

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/simnet"
	"repro/internal/trace"
)

const delta = 10 * time.Millisecond

func TestRunAllProtocolsSynchronous(t *testing.T) {
	for _, proto := range Protocols() {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			res, err := Run(Config{Protocol: proto, N: 5, Delta: delta, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation != nil {
				t.Fatalf("safety violation: %v", res.Violation)
			}
			if !res.Decided {
				t.Fatal("did not decide")
			}
			if res.Value == "" {
				t.Fatal("no decided value reported")
			}
			if res.Messages == 0 || len(res.MessagesByType) == 0 {
				t.Fatal("no message accounting")
			}
			if res.FirstDecision > res.LastDecision {
				t.Fatalf("FirstDecision %v > LastDecision %v", res.FirstDecision, res.LastDecision)
			}
		})
	}
}

func TestRunAllProtocolsAfterStabilization(t *testing.T) {
	ts := 200 * time.Millisecond
	for _, proto := range Protocols() {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			res, err := Run(Config{Protocol: proto, N: 5, Delta: delta, TS: ts, Rho: 0.01, Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Decided {
				t.Fatal("did not decide after TS")
			}
			if res.LastDecision < ts {
				t.Fatalf("decided at %v before TS %v under DropAll", res.LastDecision, ts)
			}
			if res.LatencyAfterTS != res.LastDecision-ts {
				t.Fatalf("LatencyAfterTS = %v, want %v", res.LatencyAfterTS, res.LastDecision-ts)
			}
		})
	}
}

func TestLatencyAfterTSClampsWhenDecisionPredatesTS(t *testing.T) {
	// A synchronous pre-TS network lets the cluster decide long before
	// stabilization. The headline metric must then clamp to zero (the
	// "decide by TS + bound" claim is trivially met), not fall back to
	// LastDecision — the fallback made harness.Result disagree with
	// scenario.RunResult.LatencyAfterTS on the same run.
	res, err := Run(Config{
		Protocol: ModifiedPaxos, N: 3, Delta: delta,
		TS: 10 * time.Second, Policy: simnet.Synchronous{}, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decided {
		t.Fatal("did not decide")
	}
	if res.LastDecision >= 10*time.Second {
		t.Fatalf("decision at %v should predate TS", res.LastDecision)
	}
	if res.LatencyAfterTS != 0 {
		t.Fatalf("LatencyAfterTS = %v for a pre-TS decision, want 0 (clamped)", res.LatencyAfterTS)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(Config{Protocol: "nope", N: 3, Delta: delta}); err == nil {
		t.Error("unknown protocol should error")
	}
	if _, err := Run(Config{Protocol: ModifiedPaxos, N: 0, Delta: delta}); err == nil {
		t.Error("bad N should error")
	}
	if _, err := Run(Config{Protocol: RoundBased, N: 3, Delta: delta, Attack: "bogus"}); err == nil {
		t.Error("unknown attack should error")
	}
	if _, err := Run(Config{Protocol: RoundBased, N: 5, Delta: delta, Attack: ObsoleteBallots, AttackK: 2}); err == nil {
		t.Error("obsolete-ballot attack on round-based should error")
	}
}

func TestObsoleteBallotAttackThroughHarness(t *testing.T) {
	ts := 100 * time.Millisecond
	runK := func(proto Protocol, k int) time.Duration {
		res, err := Run(Config{
			Protocol: proto, N: 7, Delta: delta, TS: ts, Seed: 3,
			Attack: ObsoleteBallots, AttackK: k,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Decided {
			t.Fatalf("%s k=%d did not decide", proto, k)
		}
		return res.LatencyAfterTS
	}
	tradFlat := runK(TraditionalPaxos, 0)
	tradHit := runK(TraditionalPaxos, 6)
	modFlat := runK(ModifiedPaxos, 0)
	modHit := runK(ModifiedPaxos, 6)
	if tradHit <= tradFlat+5*delta {
		t.Errorf("attack did not slow traditional paxos: %v vs %v", tradHit, tradFlat)
	}
	if modHit > modFlat+5*delta {
		t.Errorf("attack slowed modified paxos: %v vs %v", modHit, modFlat)
	}
	t.Logf("trad: %v→%v; mod: %v→%v", tradFlat, tradHit, modFlat, modHit)
}

func TestDeadCoordinatorsThroughHarness(t *testing.T) {
	ts := 100 * time.Millisecond
	runK := func(proto Protocol, k int) time.Duration {
		res, err := Run(Config{
			Protocol: proto, N: 9, Delta: delta, TS: ts, Seed: 4,
			Attack: DeadCoordinators, AttackK: k,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Decided {
			t.Fatalf("%s k=%d did not decide", proto, k)
		}
		return res.LatencyAfterTS
	}
	rbFlat := runK(RoundBased, 0)
	rbHit := runK(RoundBased, 4)
	if rbHit <= rbFlat+2*5*delta {
		t.Errorf("dead coordinators did not slow round-based: %v vs %v", rbHit, rbFlat)
	}
	// The same crashed processes barely affect modified paxos.
	modFlat := runK(ModifiedPaxos, 0)
	modHit := runK(ModifiedPaxos, 4)
	if modHit > 2*modFlat+5*delta {
		t.Errorf("crashes slowed modified paxos disproportionately: %v vs %v", modHit, modFlat)
	}
	t.Logf("roundbased: %v→%v; modpaxos: %v→%v", rbFlat, rbHit, modFlat, modHit)
}

func TestRestartRecoveryMetric(t *testing.T) {
	ts := 200 * time.Millisecond
	restartAt := ts + 400*time.Millisecond
	res, err := Run(Config{
		Protocol: ModifiedPaxos, N: 5, Delta: delta, TS: ts, Seed: 5,
		Restarts: []Restart{{Proc: 4, CrashAt: AtAbs(50 * time.Millisecond), RestartAt: AtAbs(restartAt)}},
		Horizon:  5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := res.RestartRecovery[4]
	if !ok {
		t.Fatal("no restart recovery recorded for process 4")
	}
	if rec > 4*delta {
		t.Errorf("restart recovery %v, want ≤ 4δ", rec)
	}
}

func TestPreparedFastPath(t *testing.T) {
	res, err := Run(Config{Protocol: ModifiedPaxos, N: 5, Delta: delta, Seed: 6, Prepared: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decided || res.LastDecision > 3*delta {
		t.Errorf("prepared fast path: decided=%v at %v, want ≤ 3δ", res.Decided, res.LastDecision)
	}
}

func TestDefaultProposalsDistinct(t *testing.T) {
	props := DefaultProposals(5)
	seen := map[consensus.Value]bool{}
	for _, p := range props {
		if seen[p] {
			t.Fatalf("duplicate proposal %q", p)
		}
		seen[p] = true
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Result {
		res, err := Run(Config{Protocol: ModifiedPaxos, N: 5, Delta: delta, TS: 150 * time.Millisecond, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.LastDecision != b.LastDecision || a.Messages != b.Messages || a.Value != b.Value {
		t.Fatalf("nondeterministic harness runs: %+v vs %+v",
			fmt.Sprintf("%v/%d/%s", a.LastDecision, a.Messages, a.Value),
			fmt.Sprintf("%v/%d/%s", b.LastDecision, b.Messages, b.Value))
	}
}

// TestObserveDoesNotPerturbSchedule pins the observability invariant:
// enabling spans and histograms consumes no randomness and schedules no
// events, so the simulated schedule is identical with them on or off —
// every protocol, same decision times, same message counts, same per-type
// traffic.
func TestObserveDoesNotPerturbSchedule(t *testing.T) {
	for _, p := range Protocols() {
		run := func(observe bool) Result {
			res, err := Run(Config{
				Protocol: p, N: 5, Delta: delta, TS: 150 * time.Millisecond,
				Seed: 42, Rho: 0.01, Observe: observe,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		plain, observed := run(false), run(true)
		if plain.LastDecision != observed.LastDecision ||
			plain.Messages != observed.Messages ||
			plain.Value != observed.Value {
			t.Errorf("%s: observation perturbed the schedule: %v/%d/%s vs %v/%d/%s",
				p, plain.LastDecision, plain.Messages, plain.Value,
				observed.LastDecision, observed.Messages, observed.Value)
		}
		for typ, n := range plain.MessagesByType {
			if observed.MessagesByType[typ] != n {
				t.Errorf("%s: per-type count %q changed: %d vs %d",
					p, typ, n, observed.MessagesByType[typ])
			}
		}
		// And the observed run actually observed: every process decided, so
		// the decide-latency histogram carries N samples.
		if h, ok := observed.Collector.HistogramCopy(trace.HistDecideLatency); !ok || h.Count() != 5 {
			t.Errorf("%s: decide-latency count = %v (ok=%v), want 5", p, h.Count(), ok)
		}
		if len(observed.Collector.SpanEvents()) == 0 {
			t.Errorf("%s: observed run recorded no span events", p)
		}
	}
}
