// Package scenario is the declarative scenario engine: an adversarial
// schedule (network policy, fault schedule, clock profile, message-level
// adversary) plus the invariants it must not break, expressed as one value —
// a Spec — and executed across protocols and seeds by the Runner.
//
// The paper's headline claim (consensus by TS + O(δ) under *any*
// pre-stabilization adversary) is only as credible as the diversity of
// adversaries thrown at it. The building blocks all exist elsewhere in this
// repository (simnet policies, adversary injections, crash/restart, clock
// drift); this package makes them composable and enumerable so regimes can
// be swept systematically instead of hand-wired per experiment. The canned
// library (library.go) ships the named scenarios; `cmd/scenario` is the CLI.
package scenario

import (
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/core/consensus"
	"repro/internal/harness"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// NetProfile builds the pre-stabilization network policy for a given
// cluster size and timing; nil keeps the harness default (DropAll when
// TS > 0). Taking the parameters as inputs lets one profile scale across a
// sweep.
type NetProfile func(n int, delta, ts time.Duration) simnet.Policy

// ClockProfile describes the cluster's local clocks. The zero value means
// perfect clocks; a bare Rho spreads rates deterministically across
// [1−ρ, 1+ρ] (the simnet default).
type ClockProfile struct {
	// Rho is the clock-rate error bound.
	Rho float64
	// Extremes pins every clock to an edge of the band: even processes run
	// at 1−ρ, odd ones at 1+ρ — the worst mutual drift the model allows.
	Extremes bool
	// OffsetDeltas gives per-process initial clock offsets in units of δ
	// (cycled when shorter than N). The paper never assumes synchronized
	// clocks, so correct protocols must shrug these off.
	OffsetDeltas []float64
}

// drift returns the explicit per-process clock function, or nil to use the
// simnet default spread.
func (c ClockProfile) drift(n int, delta time.Duration) func(consensus.ProcessID) clock.Drift {
	if !c.Extremes && len(c.OffsetDeltas) == 0 {
		return nil
	}
	return func(id consensus.ProcessID) clock.Drift {
		d := clock.Perfect()
		switch {
		case c.Extremes:
			if id%2 == 0 {
				d = clock.WithRate(1 - c.Rho)
			} else {
				d = clock.WithRate(1 + c.Rho)
			}
		case c.Rho > 0 && n > 1:
			// Mirror the simnet default spread so declaring offsets does
			// not silently weaken the rate adversary the Rho promises.
			frac := float64(id) / float64(n-1)
			d = clock.WithRate(1 - c.Rho + 2*c.Rho*frac)
		}
		if len(c.OffsetDeltas) > 0 {
			d.Offset = time.Duration(c.OffsetDeltas[int(id)%len(c.OffsetDeltas)] * float64(delta))
		}
		return d
	}
}

// AdversaryProfile selects a message-level adversary from the harness
// repertoire.
type AdversaryProfile struct {
	// Attack is the harness attack kind (none, obsolete, deadcoords).
	Attack harness.AttackKind
	// K is the attack strength; 0 with a non-empty Attack means "scale
	// with N": ⌈N/2⌉−1, the paper's maximum.
	K int
}

func (a AdversaryProfile) strength(n int) int {
	if a.K > 0 {
		return a.K
	}
	return consensus.Majority(n) - 1
}

// Victim selectors for AssassinateOnSeries.
const (
	// VictimEmitter kills the process that emitted the triggering sample —
	// the process furthest ahead in the protocol.
	VictimEmitter = -1
	// VictimRoundOwner kills process (value mod N) — the rotating-
	// coordinator convention, so triggering on round r kills round r's
	// coordinator at the exact moment its round begins.
	VictimRoundOwner = -2
)

// AssassinateOnSeries is the adaptive fault: it watches a trace series
// ("round", "session", …) and crashes a victim the first time the series
// reaches MinValue — coordinator assassination at a chosen round, without
// protocol-specific wiring. Protocols that never emit the series are
// unaffected, so one scenario can carry one assassin per series. It reacts
// to protocol progress, so it installs a PreStart hook on the simulated
// network instead of joining the static restart schedule.
type AssassinateOnSeries struct {
	// Series is the trace series to watch.
	Series string
	// MinValue triggers on the first sample with Value ≥ MinValue.
	MinValue int64
	// AfterTS restricts the trigger to post-stabilization samples (the
	// regime the paper's bound excludes failures from — deliberately
	// violated here).
	AfterTS bool
	// Victim is a process index, or VictimEmitter / VictimRoundOwner.
	Victim int
	// RestartAfter revives the victim this many δ after the kill; 0 means
	// never.
	RestartAfter float64
}

// install adds the assassin's PreStart hook to one run's configuration.
func (f AssassinateOnSeries) install(cfg *harness.Config) error {
	if f.Victim >= cfg.N || f.Victim < VictimRoundOwner {
		return fmt.Errorf("scenario: assassination victim %d in a cluster of %d", f.Victim, cfg.N)
	}
	delta, ts := cfg.Delta, cfg.TS
	cfg.PreStart = append(cfg.PreStart, func(nw *simnet.Network) {
		fired := false
		nw.Collector().OnEmit(func(kind string, s trace.Sample) {
			if fired || kind != f.Series || s.Value < f.MinValue {
				return
			}
			if f.AfterTS && s.At < ts {
				return
			}
			victim := f.Victim
			switch f.Victim {
			case VictimEmitter:
				victim = s.Proc
			case VictimRoundOwner:
				victim = int(s.Value) % nw.Config().N
			}
			fired = true
			now := nw.Engine().Now()
			nw.CrashAt(consensus.ProcessID(victim), now)
			if f.RestartAfter > 0 {
				nw.RestartAt(consensus.ProcessID(victim), now+time.Duration(f.RestartAfter*float64(delta)))
			}
		})
	})
	return nil
}

// Spec is one declarative scenario: the regime to run and the invariants it
// must satisfy. The zero value of every field has a sensible default (see
// withDefaults), so a Spec reads as a delta against the standard experiment
// setup (N=5, δ=10ms, TS=200ms, every registered protocol, safety checks
// on).
type Spec struct {
	// Name identifies the scenario (CLI: `scenario run <name>`).
	Name string
	// Description is one line of intent shown by `scenario list`.
	Description string
	// Backend selects the execution substrate: BackendSim (the default),
	// BackendLive (goroutines + in-memory transport), or BackendLiveTCP
	// (goroutines + loopback TCP). The live backends run the same Spec
	// under wall-clock time with policy-driven fault injection and report
	// through the identical schema; features with no live equivalent
	// (message-level adversaries, clock profiles, PreStart hooks,
	// WorstCaseDelays) fail the run rather than degrade silently.
	Backend string
	// Protocols to run; nil means every visible protocol in the registry
	// that the chosen backend supports (the live backends exclude
	// protocols needing the simulator's leader oracle).
	Protocols []harness.Protocol
	// N, Delta, TS, Sigma, Eps are the model parameters (defaults: 5,
	// 10ms, 200ms, protocol defaults).
	N     int
	Delta time.Duration
	TS    time.Duration
	Sigma time.Duration
	Eps   time.Duration
	// StableFromStart sets TS = 0 (the network is synchronous from time
	// zero), which a zero TS alone cannot express because it defaults.
	StableFromStart bool
	// OpinionPool, when > 0, bounds the number of distinct proposals:
	// processes draw their initial values round-robin from a pool of this
	// many. Population-dynamics scenarios set it (the O(log n) theory
	// assumes a bounded opinion space); 0 keeps the default
	// one-distinct-proposal-per-process.
	OpinionPool int
	// Net is the pre-stabilization network profile (nil = DropAll).
	Net NetProfile
	// Restarts is the static crash/restart schedule, copied into each
	// run's harness.Config unchanged; its instants are harness.Rel, so they
	// follow δ and TS across a sweep.
	Restarts []harness.Restart
	// Assassins are the adaptive faults, each installed as a PreStart hook.
	Assassins []AssassinateOnSeries
	// Clocks is the clock profile.
	Clocks ClockProfile
	// Adversary is the message-level adversary.
	Adversary AdversaryProfile
	// WorstCaseDelays makes every post-TS delivery take exactly δ.
	WorstCaseDelays bool
	// Prepared enables the modified-Paxos stable-state fast path (phase 1
	// pre-executed).
	Prepared bool
	// Checks are the invariants evaluated on every run; nil means
	// DefaultChecks (termination, agreement, validity).
	Checks []Check
	// Seeds is the number of independent runs per protocol (default 5);
	// seed i uses BaseSeed+i (BaseSeed default 1000).
	Seeds    int
	BaseSeed int64
	// Horizon bounds each run (harness default: 2 minutes virtual).
	Horizon time.Duration
	// Workers sizes the pool executing the independent (protocol, seed)
	// cells concurrently; 0 uses GOMAXPROCS, 1 forces serial execution.
	// The report is identical for every worker count.
	Workers int
	// KeepRuns retains the raw RunResults on the Report (Report.Runs), for
	// callers that need per-run data the aggregates do not carry (restart
	// recoveries, per-type message counts, trace series).
	KeepRuns bool
	// Observe enables run-level observability — phase spans and latency
	// histograms — on every run's collector, on any backend. Observation
	// consumes no randomness and schedules nothing, so simulator schedules
	// are byte-identical with it on or off; the report additionally gains
	// decision-latency quantiles per protocol.
	Observe bool
}

// withDefaults returns the spec with every zero field resolved.
func (s Spec) withDefaults() Spec {
	if s.N == 0 {
		s.N = 5
	}
	if s.Delta == 0 {
		s.Delta = 10 * time.Millisecond
	}
	if s.StableFromStart {
		s.TS = 0
	} else if s.TS == 0 {
		s.TS = 200 * time.Millisecond
	}
	if s.Backend == "" {
		s.Backend = BackendSim
	}
	if len(s.Protocols) == 0 {
		s.Protocols = harness.Protocols()
		// A defaulted protocol set narrows to what the backend can run;
		// an explicit set instead fails the run on an unsupported entry.
		if b, err := backendFor(s.Backend); err == nil {
			supported := s.Protocols[:0:0]
			for _, p := range s.Protocols {
				if b.Supports(p) == nil {
					supported = append(supported, p)
				}
			}
			s.Protocols = supported
		}
	}
	if len(s.Checks) == 0 {
		s.Checks = DefaultChecks()
	}
	if s.Seeds == 0 {
		s.Seeds = 5
	}
	if s.BaseSeed == 0 {
		s.BaseSeed = 1000
	}
	return s
}

// config builds the harness configuration for one (protocol, seed) cell.
func (s Spec) config(p harness.Protocol, seed int64) (harness.Config, error) {
	cfg := harness.Config{
		Protocol: p, N: s.N, Delta: s.Delta, TS: s.TS,
		Sigma: s.Sigma, Eps: s.Eps,
		Rho: s.Clocks.Rho, Drift: s.Clocks.drift(s.N, s.Delta),
		WorstCaseDelays: s.WorstCaseDelays,
		Prepared:        s.Prepared,
		OpinionPool:     s.OpinionPool,
		Seed:            seed,
		Horizon:         s.Horizon,
		Observe:         s.Observe,
		Restarts:        s.Restarts,
	}
	if s.Net != nil {
		cfg.Policy = s.Net(s.N, s.Delta, s.TS)
	}
	if s.Adversary.Attack != "" && s.Adversary.Attack != harness.NoAttack {
		cfg.Attack = s.Adversary.Attack
		cfg.AttackK = s.Adversary.strength(s.N)
	}
	for _, f := range s.Assassins {
		if err := f.install(&cfg); err != nil {
			return harness.Config{}, err
		}
	}
	return cfg, nil
}
