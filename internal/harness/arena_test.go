package harness

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/simnet"
)

// headline projects the deterministically comparable part of a Result.
func headline(r Result) map[string]any {
	return map[string]any{
		"decided":   r.Decided,
		"value":     r.Value,
		"first":     r.FirstDecision,
		"last":      r.LastDecision,
		"msgs":      r.Messages,
		"byType":    r.MessagesByType,
		"delivered": r.Collector.DeliveredCounts(),
		"recovery":  r.RestartRecovery,
	}
}

// TestArenaRunsMatchFreshRuns is the storage-reuse guarantee: runs on a
// shared arena — across different protocols and shrinking and growing
// cluster sizes, in sequence — must be byte-identical to runs on fresh
// engines and nodes. This is what lets the scenario runner keep one arena
// per worker without the worker count or job order leaking into reports.
// The paper's four cores run here (paxos under its leader oracle), each
// process taking over the tallies, hold-back queue and reply boxes of the
// one its node ran last (consensus.Reuser): after a run of the same
// protocol, after another protocol's (modpaxos and bconsensus take turns on
// the same nodes), after a crash (a restarted process reuses its own crashed
// predecessor), and under a duplicating network.
func TestArenaRunsMatchFreshRuns(t *testing.T) {
	const delta, ts = 10 * time.Millisecond, 200 * time.Millisecond
	restarts := []Restart{
		{Proc: 1, CrashAt: AtDeltas(3), RestartAt: AfterTS(2)},
		{Proc: 3, CrashAt: AfterTS(1), RestartAt: AfterTS(4)},
	}
	dup := simnet.Duplicate{Prob: 0.5, MaxExtra: 2, Base: simnet.Chaos{DropProb: 0.2, MaxDelay: ts}}
	configs := []Config{
		{Protocol: "usd", N: 200, Delta: delta, Seed: 3, OpinionPool: 2},
		{Protocol: ModifiedPaxos, N: 5, Delta: delta, TS: ts, Seed: 1},
		{Protocol: "3majority", N: 100, Delta: delta, Seed: 2, OpinionPool: 3},
		{Protocol: RoundBased, N: 9, Delta: delta, TS: ts, Seed: 4},
		{Protocol: ModifiedPaxos, N: 17, Delta: delta, TS: ts, Seed: 5, Prepared: true, Policy: dup},
		{Protocol: TraditionalPaxos, N: 9, Delta: delta, TS: ts, Seed: 6, Restarts: restarts},
		{Protocol: ModifiedBConsensus, N: 9, Delta: delta, TS: ts, Seed: 7, Policy: dup},
		{Protocol: ModifiedPaxos, N: 9, Delta: delta, TS: ts, Seed: 8, Restarts: restarts},
		{Protocol: ModifiedBConsensus, N: 9, Delta: delta, TS: ts, Seed: 9, Restarts: restarts},
		{Protocol: ModifiedPaxos, N: 9, Delta: delta, TS: ts, Seed: 10},
		{Protocol: RoundBased, N: 5, Delta: delta, TS: ts, Seed: 11, Restarts: restarts, Policy: dup},
		{Protocol: TraditionalPaxos, N: 17, Delta: delta, TS: ts, Seed: 12, Policy: dup},
		{Protocol: ModifiedBConsensus, N: 5, Delta: delta, TS: ts, Seed: 13},
	}
	var fresh []map[string]any
	for _, cfg := range configs {
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s fresh: %v", cfg.Protocol, err)
		}
		if res.Violation != nil || !res.Decided {
			t.Fatalf("%s fresh: decided %v, violation %v", cfg.Protocol, res.Decided, res.Violation)
		}
		fresh = append(fresh, headline(res))
	}
	arena := simnet.NewArena()
	for pass := 0; pass < 2; pass++ {
		for i, cfg := range configs {
			cfg.Arena = arena
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s arena pass %d: %v", cfg.Protocol, pass, err)
			}
			if got := headline(res); !reflect.DeepEqual(got, fresh[i]) {
				t.Fatalf("%s (config %d) arena pass %d diverges from fresh run:\narena: %v\nfresh: %v",
					cfg.Protocol, i, pass, got, fresh[i])
			}
		}
	}
}
