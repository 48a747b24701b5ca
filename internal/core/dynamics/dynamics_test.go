package dynamics_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/core/dynamics"
	"repro/internal/harness"
)

const delta = 10 * time.Millisecond

// minorityHorizon is generous because the contrarian rule erodes emerging
// majorities: poly(n) rounds, so minority runs stay at small n.
const minorityHorizon = 10 * time.Minute

// run executes one population run with a bounded opinion space and fails
// the test on a safety violation.
func run(t *testing.T, cfg harness.Config) harness.Result {
	t.Helper()
	cfg.Delta = delta
	res, err := harness.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("safety violation: %v", res.Violation)
	}
	return res
}

// crashProc3 crashes one process before the population decides and restarts
// it after; decided peers' replies pull it forward to the same decision.
var crashProc3 = []harness.Restart{{Proc: 3, CrashAt: harness.AtAbs(50 * time.Millisecond), RestartAt: harness.AtAbs(3 * time.Second)}}

// TestPinnedSchedules holds every rule to the exact simulated schedule the
// three per-rule packages (usd, majority, minority) produced before they
// were folded into this one: the numbers were captured on that commit, so a
// row that moves means the shared core changed an RNG draw, a send, or a
// timer relative to the original implementations.
func TestPinnedSchedules(t *testing.T) {
	type row struct {
		proto    harness.Protocol
		n, pool  int
		seed     int64
		restarts []harness.Restart

		value                   consensus.Value
		last                    time.Duration
		query, reply, decisions int
	}
	rows := []row{
		{"usd", 200, 2, 1, nil, "v1", 966211685, 5610, 5594, 200},
		{"usd", 100, 2, 2, nil, "v1", 825368911, 2392, 2386, 100},
		{"usd", 100, 100, 1, nil, "v47", 1466240833, 4234, 4229, 100},
		{"usd", 50, 3, 3, nil, "v2", 879467202, 1274, 1269, 50},
		{"usd", 50, 2, 1, crashProc3, "v1", 3604258663, 1160, 1143, 100},

		{"3majority", 200, 3, 2, nil, "v2", 575179582, 10107, 10066, 200},
		{"3majority", 100, 3, 1, nil, "v2", 719489664, 6273, 6258, 100},
		{"3majority", 100, 100, 1, nil, "v86", 1135626639, 9831, 9821, 100},
		{"3majority", 50, 2, 3, nil, "v1", 433765973, 1920, 1920, 150},
		{"3majority", 50, 2, 1, crashProc3, "v1", 3385456723, 3051, 3004, 100},

		{"2choices", 200, 2, 1, nil, "v0", 533796106, 6276, 6254, 200},
		{"2choices", 100, 2, 2, nil, "v0", 664211320, 3856, 3843, 100},
		{"2choices", 100, 100, 1, nil, "v66", 2117447115, 12196, 12186, 100},
		{"2choices", 50, 2, 3, nil, "v1", 441017535, 1298, 1293, 50},
		{"2choices", 50, 2, 1, crashProc3, "v1", 3345154157, 1358, 1337, 150},

		{"minority", 21, 2, 1, nil, "v0", 727966857, 1572, 1560, 21},
		{"minority", 21, 2, 2, nil, "v1", 429845995, 942, 942, 21},
		{"minority", 21, 2, 3, nil, "v0", 429579353, 942, 939, 21},
		{"minority", 15, 2, 4, nil, "v0", 519827551, 807, 805, 15},
		{"minority", 21, 3, 1, nil, "v1", 37209461900, 78180, 78174, 21},
		{"minority", 21, 2, 1, crashProc3, "v1", 4479896821, 9153, 8906, 21},
	}
	for _, r := range rows {
		name := fmt.Sprintf("%s/n=%d/pool=%d/seed=%d/restarts=%d", r.proto, r.n, r.pool, r.seed, len(r.restarts))
		t.Run(name, func(t *testing.T) {
			cfg := harness.Config{Protocol: r.proto, N: r.n, OpinionPool: r.pool, Seed: r.seed, Restarts: r.restarts}
			if r.proto == "minority" {
				cfg.Horizon = minorityHorizon
			}
			res := run(t, cfg)
			if !res.Decided || res.Value != r.value || res.LastDecision != r.last {
				t.Errorf("decided=%v value=%q last=%d ns, want true %q %d ns",
					res.Decided, res.Value, int64(res.LastDecision), r.value, int64(r.last))
			}
			by := res.MessagesByType
			if by["dyn-query"] != r.query || by["dyn-reply"] != r.reply || by["dyn-decided"] != r.decisions {
				t.Errorf("messages query/reply/decided = %d/%d/%d, want %d/%d/%d",
					by["dyn-query"], by["dyn-reply"], by["dyn-decided"], r.query, r.reply, r.decisions)
			}
			if want := r.query + r.reply + r.decisions; res.Messages != want || len(by) != 3 {
				t.Errorf("Messages = %d over %d kinds, want %d over 3", res.Messages, len(by), want)
			}
		})
	}
}

// TestRules runs the behaviours every rule must have, whatever the
// schedule: a bounded opinion space converges on a proposed opinion across
// seeds, the worst case of all-distinct opinions still converges, and a
// process that crashes before the decision and restarts after it rejoins
// and is measured.
func TestRules(t *testing.T) {
	rules := []struct {
		proto   harness.Protocol
		n, pool int
		horizon time.Duration
	}{
		{"usd", 100, 2, 0},
		{"3majority", 100, 3, 0},
		{"2choices", 100, 2, 0},
		{"minority", 21, 2, minorityHorizon},
	}
	for _, r := range rules {
		base := harness.Config{Protocol: r.proto, N: r.n, OpinionPool: r.pool, Seed: 1, Horizon: r.horizon}
		t.Run(string(r.proto)+"/converges", func(t *testing.T) {
			for _, seed := range []int64{1, 2, 3} {
				cfg := base
				cfg.Seed = seed
				res := run(t, cfg)
				if !res.Decided {
					t.Fatalf("seed %d: population did not decide (last=%v)", seed, res.LastDecision)
				}
				proposed := false
				for _, v := range harness.PooledProposals(r.n, r.pool) {
					proposed = proposed || v == res.Value
				}
				if !proposed {
					t.Fatalf("seed %d: decided %q, not a proposed opinion", seed, res.Value)
				}
			}
		})
		t.Run(string(r.proto)+"/many-opinions", func(t *testing.T) {
			cfg := base
			cfg.OpinionPool = r.n
			if res := run(t, cfg); !res.Decided {
				t.Fatalf("population did not decide from distinct opinions (last=%v)", res.LastDecision)
			}
		})
		t.Run(string(r.proto)+"/restart-rejoins", func(t *testing.T) {
			cfg := base
			cfg.Restarts = crashProc3
			res := run(t, cfg)
			if !res.Decided {
				t.Fatal("restarted process never caught up")
			}
			if _, ok := res.RestartRecovery[3]; !ok {
				t.Fatal("no recovery measurement for the restarted process")
			}
		})
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []dynamics.Config{
		{},                        // missing Delta
		{Delta: -delta},           // negative Delta
		{Delta: delta, Rho: 1},    // Rho out of range
		{Delta: delta, Rho: -0.1}, // Rho out of range
	}
	for _, rule := range []string{"usd", "3majority", "2choices", "minority"} {
		for i, cfg := range bad {
			if _, err := dynamics.New(rule, cfg); err == nil {
				t.Errorf("%s case %d: config %+v unexpectedly accepted", rule, i, cfg)
			}
		}
		if _, err := dynamics.New(rule, dynamics.Config{Delta: delta}); err != nil {
			t.Errorf("%s: default config rejected: %v", rule, err)
		}
	}
	if _, err := dynamics.New("degroot", dynamics.Config{Delta: delta}); err == nil {
		t.Error("unknown rule accepted")
	}
}
