package scenario

import (
	"sort"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/harness"
	"repro/internal/simnet"
)

// Library returns the canned scenarios in definition order — the named
// regimes every protocol is expected to survive. Each is a plain Spec;
// callers may copy one and tweak fields (the sweep subcommand does).
func Library() []Spec {
	return []Spec{
		baselineSynchronous(),
		totalPartition(),
		splitBrainUntilTS(),
		flakyMinority(),
		lossBurstRecovery(),
		slowCoordinator(),
		driftHeavy(),
		chaosMonkey(),
		dupReorderStorm(),
		groupChurn(),
		churnStorm(),
		obsoleteBallotReplay(),
		coordinatorAssassination(),
		restartLatecomer(),
		populationDynamics(),
	}
}

// Lookup finds a canned scenario by name.
func Lookup(name string) (Spec, bool) {
	for _, s := range Library() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Names returns the canned scenario names, sorted.
func Names() []string {
	lib := Library()
	out := make([]string, len(lib))
	for i, s := range lib {
		out[i] = s.Name
	}
	sort.Strings(out)
	return out
}

// checksWithBound is the default invariant set plus the §4 latency bound —
// for scenarios whose fault schedule respects the bound's premises (no
// failures after TS).
func checksWithBound() []Check {
	return append(DefaultChecks(), LatencyBound{})
}

func baselineSynchronous() Spec {
	return Spec{
		Name:            "baseline-synchronous",
		Description:     "stable from time zero: the best case every other scenario degrades from",
		StableFromStart: true,
		Net: func(n int, delta, ts time.Duration) simnet.Policy {
			return simnet.Synchronous{}
		},
		Checks: append(checksWithBound(), MessageBudget{MaxTotal: 20000}),
	}
}

func totalPartition() Spec {
	return Spec{
		Name:        "total-partition",
		Description: "every pre-TS message is lost — the Ω(δ) lower-bound regime",
		// Net nil: the harness default (DropAll) is exactly this regime.
		Checks: checksWithBound(),
	}
}

func splitBrainUntilTS() Spec {
	return Spec{
		Name:        "split-brain-until-TS",
		Description: "two-way partition healing exactly at TS; each side is internally synchronous",
		Net: func(n int, delta, ts time.Duration) simnet.Policy {
			return simnet.PartitionUntilTS{Group: simnet.SplitBrain(n)}
		},
		Checks: checksWithBound(),
	}
}

func flakyMinority() Spec {
	return Spec{
		Name:        "flaky-minority",
		Description: "the minority side loses 70% of its pre-TS traffic; the majority is healthy",
		Net: func(n int, delta, ts time.Duration) simnet.Policy {
			targets := make(map[consensus.ProcessID]bool)
			for _, id := range MinorityUp(n) {
				targets[id] = true
			}
			return simnet.LossBurst{DropProb: 0.7, Targets: targets}
		},
		Checks: checksWithBound(),
	}
}

func lossBurstRecovery() Spec {
	return Spec{
		Name:        "loss-burst",
		Description: "healthy pre-TS network with a total black-out for the last TS/2 before stabilization",
		Net: func(n int, delta, ts time.Duration) simnet.Policy {
			return simnet.LossBurst{From: ts / 2, To: ts}
		},
		Checks: checksWithBound(),
	}
}

func slowCoordinator() Spec {
	return Spec{
		Name:        "slow-coordinator",
		Description: "process 0 (the eventual leader / round-0 coordinator) has a 3δ pre-TS link",
		Net: func(n int, delta, ts time.Duration) simnet.Policy {
			return simnet.TargetedDelay{
				Targets: map[consensus.ProcessID]bool{0: true},
				Delay:   3 * delta,
			}
		},
		Checks: checksWithBound(),
	}
}

func driftHeavy() Spec {
	return Spec{
		Name:        "drift-heavy",
		Description: "clocks pinned at the edges of the ρ=10% band with multi-δ offsets, total partition until TS",
		Clocks: ClockProfile{
			Rho:          0.10,
			Extremes:     true,
			OffsetDeltas: []float64{0, 7, -3, 11, -8},
		},
		Checks: checksWithBound(),
	}
}

func chaosMonkey() Spec {
	return Spec{
		Name:        "chaos-monkey",
		Description: "every pre-TS message dropped with p=0.5 or delayed up to 2·TS (obsolete-message soup)",
		Net: func(n int, delta, ts time.Duration) simnet.Policy {
			return simnet.Chaos{DropProb: 0.5}
		},
		Checks: checksWithBound(),
	}
}

func dupReorderStorm() Spec {
	return Spec{
		Name:        "dup-reorder-storm",
		Description: "pre-TS messages lose FIFO order (4δ jitter) and re-deliver probabilistically — idempotence under Byzantine-flavored links",
		Net: func(n int, delta, ts time.Duration) simnet.Policy {
			return simnet.Reorder{
				Base: simnet.Duplicate{
					Prob: 0.4, MaxExtra: 2,
					Base: simnet.Chaos{DropProb: 0.2},
				},
			}
		},
		Checks: checksWithBound(),
	}
}

func groupChurn() Spec {
	return Spec{
		Name:        "group-churn",
		Description: "pre-TS partition reshuffled every 4δ along random cut lines — quorums form and dissolve until stabilization",
		Net: func(n int, delta, ts time.Duration) simnet.Policy {
			return simnet.GroupChurn{Groups: 2, Period: 4 * delta, Seed: 42}
		},
		Checks: checksWithBound(),
	}
}

func churnStorm() Spec {
	return Spec{
		Name:        "churn-storm",
		Description: "staggered crash/restart churn after TS (a majority stays up throughout)",
		Restarts: []harness.Restart{
			{Proc: 3, CrashAt: harness.AfterTS(1), RestartAt: harness.AfterTS(5)},
			{Proc: 4, CrashAt: harness.AfterTS(3), RestartAt: harness.AfterTS(8)},
			{Proc: 1, CrashAt: harness.AfterTS(6), RestartAt: harness.AfterTS(10)},
		},
		// Post-TS failures void the ε+3τ+5δ premise; safety must still hold.
		Checks: DefaultChecks(),
	}
}

func obsoleteBallotReplay() Spec {
	return Spec{
		Name:        "obsolete-ballot-replay",
		Description: "adaptive release of obsolete high ballots (§2 attack) vs the session cap (§4)",
		Protocols:   []harness.Protocol{harness.TraditionalPaxos, harness.ModifiedPaxos},
		Adversary:   AdversaryProfile{Attack: harness.ObsoleteBallots},
		// Worst-case delivery makes the O(Nδ) shape sharpest.
		WorstCaseDelays: true,
		Checks:          checksWithBound(),
	}
}

func coordinatorAssassination() Spec {
	return Spec{
		Name:        "coordinator-assassination",
		Description: "the first post-TS round's coordinator (or leading session's owner) is killed as its round begins",
		Protocols: []harness.Protocol{
			harness.ModifiedPaxos, harness.RoundBased, harness.ModifiedBConsensus,
		},
		Assassins: []AssassinateOnSeries{
			{Series: "round", AfterTS: true, Victim: VictimRoundOwner, RestartAfter: 6},
			{Series: "session", AfterTS: true, Victim: VictimEmitter, RestartAfter: 6},
		},
		// The post-TS kill voids the ε+3τ+5δ premise, but the revived
		// victim must still catch up in O(δ).
		Checks: append(DefaultChecks(), RecoveryBound{MaxDeltas: 20}),
	}
}

func populationDynamics() Spec {
	return Spec{
		Name:        "population-dynamics",
		Description: "the O(log n) gossip family at n=1000: usd, 3-majority, and 2-choices over a two-opinion population",
		// The dynamics protocols are hidden (they answer a different question
		// than the paper's latency-bound family), so they must be named
		// explicitly — a defaulted protocol set would never include them.
		Protocols:       []harness.Protocol{"usd", "3majority", "2choices"},
		N:               1000,
		StableFromStart: true,
		// A two-opinion population is the regime the O(log n) convergence
		// theory addresses; n distinct proposals would never self-amplify.
		OpinionPool: 2,
		// Three seeds keep `run all` at population scale affordable; the
		// sweep CLI widens the matrix when the scaling question is asked.
		Seeds: 3,
		// No latency-bound check: the dynamics family promises O(log n)
		// rounds, not decision by TS + ε + 3τ + 5δ.
		Checks: DefaultChecks(),
	}
}

func restartLatecomer() Spec {
	return Spec{
		Name:        "restart-latecomer",
		Description: "a process crashes before TS and returns 30δ after everyone decided; it must catch up in O(δ)",
		Restarts: []harness.Restart{
			{Proc: 4, CrashAt: harness.AfterTS(-10), RestartAt: harness.AfterTS(30)},
		},
		Checks: append(DefaultChecks(), RecoveryBound{MaxDeltas: 20}),
	}
}
