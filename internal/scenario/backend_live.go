package scenario

import (
	"fmt"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/harness"
	"repro/internal/protocol"
	"repro/internal/trace"
)

// validateLive rejects configuration features that have no live
// equivalent: message-level adversaries and PreStart hooks need the
// simulator's event queue, clock profiles need simulated clocks, and
// WorstCaseDelays needs exactly-δ delivery. Crash/restart schedules run on
// real timers.
func validateLive(backend string, cfg harness.Config) error {
	unsupported := func(what string) error {
		return fmt.Errorf("scenario: %s backend cannot run %s (simulator only)", backend, what)
	}
	if cfg.Attack != "" && cfg.Attack != harness.NoAttack {
		return unsupported(fmt.Sprintf("the %q adversary", cfg.Attack))
	}
	if len(cfg.PreStart) > 0 {
		return unsupported("PreStart fault hooks (adaptive assassins)")
	}
	if cfg.Drift != nil || cfg.Rho != 0 {
		return unsupported("clock profiles (goroutines share the host clock)")
	}
	if cfg.WorstCaseDelays {
		return unsupported("exactly-δ worst-case delivery")
	}
	return nil
}

// liveHorizon bounds the wall-clock wait for a cell. The harness's 2-minute
// virtual default would be 2 real minutes per failing cell here, so an
// unset horizon becomes TS plus a generous post-stabilization envelope.
func liveHorizon(cfg harness.Config) time.Duration {
	if cfg.Horizon > 0 {
		return cfg.Horizon
	}
	h := cfg.TS + 100*cfg.Delta
	if h < 2*time.Second {
		h = 2 * time.Second
	}
	return h
}

// runLiveCell executes a cell on the live runtime: one goroutine per
// process, real clocks and timers, and a PolicyTransport turning the cell's
// pre-TS policy into wall-clock fault injection over memory or loopback TCP.
// TS becomes a wall-clock offset from cluster start, and the Result is built
// as the simulator's is. What the runtime cannot honor is refused.
func runLiveCell(backend string, cfg harness.Config) (harness.Result, error) {
	if err := validateLive(backend, cfg); err != nil {
		return harness.Result{}, err
	}
	desc, err := protocol.Get(string(cfg.Protocol))
	if err != nil {
		return harness.Result{}, fmt.Errorf("scenario: %w", err)
	}
	if err := supports(backend, cfg.Protocol); err != nil {
		return harness.Result{}, err
	}
	factory, err := desc.Build(cfg.Params())
	if err != nil {
		return harness.Result{}, err
	}
	collector := trace.NewCollector()
	if cfg.Observe {
		// Same switches the harness flips for the simulator; both must be
		// on before the cluster starts feeding the collector.
		collector.EnableSpans(0)
		collector.EnableHistograms()
	}
	// A process that never comes back is excluded from the processes the
	// run waits on (the harness semantic: "every process up at the end
	// decided").
	expected := make([]consensus.ProcessID, 0, cfg.N)
	for i := 0; i < cfg.N; i++ {
		if id := consensus.ProcessID(i); !harness.StaysDown(cfg.Restarts, id) {
			expected = append(expected, id)
		}
	}
	cfg.Horizon = liveHorizon(cfg)
	decided, checker, _, err := Cluster{
		Backend: backend, Delta: cfg.Delta, TS: cfg.TS, Policy: cfg.Policy, Seed: cfg.Seed,
		Horizon: cfg.Horizon, Restarts: cfg.Restarts, Group: cfg.N,
		Collector: collector, Factory: factory, Proposals: harness.DefaultProposals(cfg.N), Await: expected,
	}.Run()
	if err != nil {
		return harness.Result{}, err
	}
	return harness.BuildResult(cfg, collector, checker, expected, decided), nil
}
