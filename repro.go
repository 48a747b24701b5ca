// Package repro is a Go reproduction of "How Fast Can Eventual Synchrony
// Lead to Consensus?" (Partha Dutta, Rachid Guerraoui, Leslie Lamport,
// DSN 2005).
//
// The paper shows that in the eventually-synchronous model — an unknown
// stabilization time TS after which no process fails and messages arrive
// within a known bound δ — consensus can be reached by TS + O(δ), where all
// previously known algorithms needed TS + O(Nδ) in the worst case. This
// package is the public facade over the full implementation:
//
//   - Four consensus protocols: the paper's modified Paxos (§4, the
//     contribution), traditional Paxos (§2 baseline), a rotating-coordinator
//     round-based algorithm (§3 baseline), and the modified B-Consensus of
//     §5 with its timestamp-ordering oracle.
//   - A deterministic discrete-event simulator realizing the paper's system
//     model exactly (pre-TS adversarial loss/delay, post-TS δ-bounded
//     delivery, crash/restart with stable storage, drifting local clocks).
//   - A live goroutine runtime running the identical protocol code over
//     in-memory or TCP transports.
//   - Adversaries (obsolete-ballot release, dead coordinators) and the
//     experiment harness regenerating every table (cmd/experiments).
//
// # Quick start
//
//	res, err := repro.Run(repro.Config{
//		Protocol: repro.ModifiedPaxos,
//		N:        5,
//		Delta:    10 * time.Millisecond,
//		TS:       200 * time.Millisecond,
//		Seed:     1,
//	})
//	// res.LatencyAfterTS ≈ a few δ, and never above the paper's
//	// ε + 3τ + 5δ bound.
//
// README.md has the layout; `go run ./cmd/experiments -o EXPERIMENTS.md`
// writes the measured reproduction of every claim.
package repro

import (
	"fmt"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/protocol"
)

// Protocol selects a consensus algorithm. See the constants for the four
// implementations.
type Protocol = harness.Protocol

// The implemented protocols.
const (
	// ModifiedPaxos is the paper's contribution (§4): Paxos with ballot
	// sessions, session timers in [4δ, σ], an ε-heartbeat, and no leader
	// election; decides by TS + ε + 3τ + 5δ.
	ModifiedPaxos = harness.ModifiedPaxos
	// TraditionalPaxos is the §2 baseline, O(Nδ) under obsolete ballots.
	TraditionalPaxos = harness.TraditionalPaxos
	// RoundBased is the §3 rotating-coordinator baseline, O(Nδ) under
	// dead coordinators.
	RoundBased = harness.RoundBased
	// ModifiedBConsensus is the §5 leaderless oracle-based algorithm,
	// O(δ) like modified Paxos.
	ModifiedBConsensus = harness.ModifiedBConsensus
)

// Config configures a simulated consensus run; see harness.Config for field
// documentation.
type Config = harness.Config

// Result is the outcome of a simulated run.
type Result = harness.Result

// Restart is one crash/restart entry of Config.Restarts; a zero RestartAt
// means the process never comes back.
type Restart = harness.Restart

// Rel is an instant stated relative to δ and TS, so a schedule follows them
// when they change: TS·[FromTS] + Deltas·δ + Abs.
type Rel = harness.Rel

// AfterTS returns the instant TS + k·δ.
func AfterTS(k float64) Rel { return harness.AfterTS(k) }

// AtDeltas returns the instant k·δ.
func AtDeltas(k float64) Rel { return harness.AtDeltas(k) }

// AtAbs returns the fixed instant d, independent of δ and TS.
func AtAbs(d time.Duration) Rel { return harness.AtAbs(d) }

// AttackKind selects an adversary; see the constants.
type AttackKind = harness.AttackKind

// The implemented adversaries.
const (
	// NoAttack applies only the pre-TS network policy.
	NoAttack = harness.NoAttack
	// ObsoleteBallots releases obsolete high-ballot messages (§2 attack).
	ObsoleteBallots = harness.ObsoleteBallots
	// DeadCoordinators crashes the first rounds' coordinators (§3 attack).
	DeadCoordinators = harness.DeadCoordinators
)

// Value is a consensus value.
type Value = consensus.Value

// ProcessID identifies a process (0..N−1).
type ProcessID = consensus.ProcessID

// Run executes one simulated consensus run and reports its metrics.
func Run(cfg Config) (Result, error) { return harness.Run(cfg) }

// Protocols lists the implemented protocols.
func Protocols() []Protocol { return harness.Protocols() }

// DecisionBound returns the paper's modified-Paxos decision bound after TS,
// ε + 3τ + 5δ with τ = max(2δ+ε, σ), for the given parameters (zero values
// select the library defaults).
func DecisionBound(delta, sigma, eps time.Duration, rho float64) (time.Duration, error) {
	d, err := protocol.Get(string(ModifiedPaxos))
	if err != nil {
		return 0, err
	}
	if d.DecisionBound == nil {
		return 0, fmt.Errorf("repro: %s declares no decision bound", ModifiedPaxos)
	}
	return d.DecisionBound(protocol.Params{Delta: delta, Sigma: sigma, Eps: eps, Rho: rho})
}

// ExperimentParams are the knobs shared by the experiment generators.
type ExperimentParams = experiments.Params

// ExperimentTable is one rendered experiment table or figure.
type ExperimentTable = experiments.Table

// DefaultExperimentParams returns cmd/experiments' default parameters.
func DefaultExperimentParams() ExperimentParams { return experiments.DefaultParams() }

// AllExperiments regenerates every experiment table and figure.
func AllExperiments(p ExperimentParams) ([]ExperimentTable, error) { return experiments.All(p) }
