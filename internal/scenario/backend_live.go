package scenario

import (
	"fmt"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/harness"
	"repro/internal/protocol"
	"repro/internal/trace"
)

// liveBackend executes cells on the live runtime: one goroutine per
// process, real clocks and timers, and a PolicyTransport translating the
// cell's pre-TS simnet policy into wall-clock fault injection over either
// the in-memory transport or loopback TCP. TS becomes a wall-clock offset
// from cluster start; decision latencies are measured against it through
// the same safety checker and collector the renderers already read, so the
// Report schema is identical to the simulator's.
//
// What the live runtime cannot honor is rejected, not approximated:
// message-level adversaries and PreStart hooks need the simulator's event
// queue, clock profiles need simulated clocks, and WorstCaseDelays needs
// exactly-δ delivery. Crash/restart schedules run on real timers.
type liveBackend struct {
	// tcp selects loopback TCP (binary frames) instead of in-memory
	// channels.
	tcp bool
}

// Name implements Backend.
func (b liveBackend) Name() string {
	if b.tcp {
		return BackendLiveTCP
	}
	return BackendLive
}

// Supports implements Backend: any registered protocol that does not need
// the simulator's leader oracle.
func (b liveBackend) Supports(p harness.Protocol) error {
	d, err := protocol.Get(string(p))
	if err != nil {
		return err
	}
	if d.NeedsLeaderOracle {
		return fmt.Errorf("scenario: %q needs the simulator's leader oracle; the %s backend cannot provide one", p, b.Name())
	}
	return nil
}

// validate rejects configuration features that have no live equivalent.
func (b liveBackend) validate(cfg harness.Config) error {
	unsupported := func(what string) error {
		return fmt.Errorf("scenario: %s backend cannot run %s (simulator only)", b.Name(), what)
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

// Run implements Backend.
func (b liveBackend) Run(cfg harness.Config) (harness.Result, error) {
	if err := b.validate(cfg); err != nil {
		return harness.Result{}, err
	}
	desc, err := protocol.Get(string(cfg.Protocol))
	if err != nil {
		return harness.Result{}, fmt.Errorf("scenario: %w", err)
	}
	if err := b.Supports(cfg.Protocol); err != nil {
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
		Backend: b.Name(), Delta: cfg.Delta, TS: cfg.TS, Policy: cfg.Policy, Seed: cfg.Seed,
		Horizon: cfg.Horizon, Restarts: cfg.Restarts, Group: cfg.N,
		Collector: collector, Factory: factory, Proposals: harness.DefaultProposals(cfg.N), Await: expected,
	}.Run()
	if err != nil {
		return harness.Result{}, err
	}
	return harness.BuildResult(cfg, collector, checker, expected, decided), nil
}
