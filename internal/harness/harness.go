// Package harness runs complete consensus experiments: it assembles a
// simulated cluster for a chosen protocol, adversary, and parameter set,
// runs it to global decision, and extracts the metrics the paper's claims
// are stated in (decision latency after stabilization, per-process restart
// recovery, message counts, session/round progressions).
//
// Every experiment table (cmd/experiments) and every benchmark in
// bench_test.go is generated through this package, so the CLI, the
// benchmarks, and the tests all measure exactly the same code paths.
//
// Protocols are resolved by name through the protocol registry
// (internal/protocol): the harness holds no protocol-specific code, so a
// newly registered protocol — or an ablation variant registered by a test —
// runs through Run unchanged, including its variant of the obsolete-message
// adversary (the descriptor's Obsolete hook) and its leader-oracle needs.
package harness

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/adversary"
	"repro/internal/clock"
	"repro/internal/core/consensus"
	"repro/internal/leader"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/trace"

	// Make the built-in protocols available wherever the harness runs.
	_ "repro/internal/protocol/all"
)

// Protocol names a consensus algorithm in the protocol registry
// (internal/protocol). Any registered name is accepted; the constants cover
// the paper's four built-ins.
type Protocol string

// The built-in protocols.
const (
	// TraditionalPaxos is the §2 baseline (claim C1).
	TraditionalPaxos Protocol = "paxos"
	// ModifiedPaxos is the paper's contribution (§4, claim C3).
	ModifiedPaxos Protocol = "modpaxos"
	// RoundBased is the rotating-coordinator baseline (§3, claim C2).
	RoundBased Protocol = "roundbased"
	// ModifiedBConsensus is the §5 algorithm (claim C6).
	ModifiedBConsensus Protocol = "bconsensus"
)

// Protocols lists the registered protocols that take part in default
// comparisons (hidden ablation variants are excluded; they run only when
// named explicitly).
func Protocols() []Protocol {
	ds := protocol.Visible()
	out := make([]Protocol, len(ds))
	for i, d := range ds {
		out[i] = Protocol(d.Name)
	}
	return out
}

// AttackKind selects the adversarial schedule.
type AttackKind string

// The implemented adversaries.
const (
	// NoAttack runs only the pre-TS network policy.
	NoAttack AttackKind = "none"
	// ObsoleteBallots is the §2 attack: adaptive release of obsolete
	// high-ballot messages (traditional Paxos) or their session-capped
	// legal equivalent (modified Paxos).
	ObsoleteBallots AttackKind = "obsolete"
	// DeadCoordinators keeps the processes coordinating the first rounds
	// down (§3 attack; also applied to other protocols as plain crashes).
	DeadCoordinators AttackKind = "deadcoords"
)

// Config describes one run.
type Config struct {
	Protocol Protocol
	// N is the cluster size.
	N int
	// Delta is δ.
	Delta time.Duration
	// TS is the stabilization time.
	TS time.Duration
	// Policy is the pre-TS network policy (nil takes PreTSPolicy's default:
	// DropAll when TS>0, Synchronous otherwise).
	Policy simnet.Policy
	// Rho is the clock-rate error bound.
	Rho float64
	// Sigma, Eps override the modified-Paxos (and ε for B-Consensus)
	// parameters; zero uses protocol defaults.
	Sigma time.Duration
	Eps   time.Duration
	// Attack selects the adversary; AttackK is its strength (number of
	// obsolete ballots or dead coordinators).
	Attack  AttackKind
	AttackK int
	// WorstCaseDelays makes every post-TS delivery take exactly δ (the
	// model's worst case) instead of a uniform draw from (0, δ]. The
	// O(Nδ) lower-bound behaviours are sharpest under this setting.
	WorstCaseDelays bool
	// Seed drives all randomness.
	Seed int64
	// Horizon bounds the run (default 2 minutes of virtual time).
	Horizon time.Duration
	// Prepared enables the modified-Paxos stable-state fast path.
	Prepared bool
	// Restarts is the crash/restart schedule, resolved against Delta and TS
	// and checked by ScheduleRestarts before anything is scheduled.
	Restarts []Restart
	// Drift optionally supplies an explicit clock per process (a scenario
	// clock profile); nil spreads rates across [1−ρ, 1+ρ] as before.
	Drift func(id consensus.ProcessID) clock.Drift
	// PreStart hooks run after the adversary is installed but before any
	// process starts. The scenario engine uses them to install fault
	// schedules (assassins, churn) that need direct network access.
	PreStart []func(*simnet.Network)
	// Arena, when non-nil, supplies pooled engine and node storage reused
	// across runs (simnet.Arena). The scenario runner gives each worker
	// its own arena so population-scale grid cells stop paying per-cell
	// construction; results are byte-identical to fresh-storage runs.
	Arena *simnet.Arena
	// OpinionPool, when > 0, draws the processes' proposals round-robin
	// from a pool of this many distinct values ("v0".."v(k-1)") instead of
	// the default one-distinct-value-per-process. Population-dynamics
	// protocols (usd, 3majority, minority) converge on the theory's
	// O(log n) timescale only when the opinion space is bounded; validity
	// is unaffected, since every pooled value is some process's proposal.
	OpinionPool int
	// Observe enables run-level observability: phase spans (run/pre-TS/
	// post-TS, protocol sessions and rounds, leader epochs, crash windows)
	// and latency/queue-depth histograms in the collector, exportable via
	// trace.Snapshot. Disabled (the default), the instrumentation costs a
	// branch per hook and allocates nothing; enabled, it consumes no
	// randomness and schedules no events, so the delivery schedule is
	// byte-identical either way.
	Observe bool
}

// Result summarizes one run.
type Result struct {
	// Decided reports whether every process that was up at the end
	// decided within the horizon.
	Decided bool
	// Value is the decided value.
	Value consensus.Value
	// FirstDecision and LastDecision are global decision times over the
	// processes that were up at the end.
	FirstDecision time.Duration
	LastDecision  time.Duration
	// LatencyAfterTS is LastDecision − TS, clamped at zero (the paper's
	// headline metric; a run that decides before stabilization meets
	// "decide by TS + bound" trivially). The clamp matches
	// scenario.RunResult.LatencyAfterTS, so every caller reports the same
	// headline number.
	LatencyAfterTS time.Duration
	// Messages is the total number of messages handed to the network up
	// to the last decision... (total for the run; see MessagesByType).
	Messages int
	// MessagesByType breaks sends down by message type.
	MessagesByType map[string]int
	// RestartRecovery maps each restarted process to the gap between its
	// last restart and its decision.
	RestartRecovery map[consensus.ProcessID]time.Duration
	// Collector exposes the raw trace for custom analysis.
	Collector *trace.Collector
	// Violation is any safety violation detected (always nil for a
	// correct implementation; recorded so harness users can assert).
	Violation error
}

// Params maps the config's protocol parameters onto the registry's common
// parameter set.
func (c Config) Params() protocol.Params {
	return protocol.Params{
		Delta: c.Delta, Sigma: c.Sigma, Eps: c.Eps, Rho: c.Rho, Prepared: c.Prepared,
	}
}

// DefaultProposals returns the proposals used by harness runs: distinct
// per-process values so agreement is observable.
func DefaultProposals(n int) []consensus.Value {
	return PooledProposals(n, n)
}

// proposalNames holds the proposal values "v0" … "v63", built once: a grid
// runs the same cluster sizes cell after cell.
var proposalNames = func() (names [64]consensus.Value) {
	for i := range names {
		names[i] = consensus.Value(fmt.Sprintf("v%d", i))
	}
	return names
}()

// PooledProposals assigns proposals round-robin from a pool of k distinct
// values, so population-dynamics runs can model a bounded opinion space
// (Config.OpinionPool). k is clamped to [1, n].
func PooledProposals(n, k int) []consensus.Value {
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	pool := proposalNames[:]
	if k > len(pool) {
		pool = make([]consensus.Value, k)
		for i := range pool {
			pool[i] = consensus.Value(fmt.Sprintf("v%d", i))
		}
	}
	out := make([]consensus.Value, n)
	for i := range out {
		out[i] = pool[i%k]
	}
	return out
}

// Run executes one experiment.
func Run(cfg Config) (Result, error) {
	if cfg.Horizon == 0 {
		cfg.Horizon = 2 * time.Minute
	}
	desc, err := protocol.Get(string(cfg.Protocol))
	if err != nil {
		return Result{}, fmt.Errorf("harness: %w", err)
	}
	factory, err := desc.Build(cfg.Params())
	if err != nil {
		return Result{}, err
	}

	collector := trace.NewCollector()
	if cfg.Observe {
		collector.EnableSpans(0)
		collector.EnableHistograms()
	}
	// Pre-intern the protocol's wire types (and the oracle's announcement)
	// into the collector's dense counter table: the run's hot path then
	// never grows the table, and unknown types still intern lazily.
	for _, name := range desc.MessageTypes() {
		collector.Intern(name)
	}
	if desc.NeedsLeaderOracle {
		collector.Intern(leader.Announce{}.Type())
	}
	proposals := DefaultProposals(cfg.N)
	if cfg.OpinionPool > 0 {
		proposals = PooledProposals(cfg.N, cfg.OpinionPool)
	}
	nw, err := Simulate(cfg, factory, proposals, collector)
	if err != nil {
		return Result{}, err
	}

	down, err := installAdversary(nw, desc, cfg)
	if err != nil {
		return Result{}, err
	}

	if desc.NeedsLeaderOracle {
		leader.Install(nw, leader.Config{Stable: stableLeader(cfg, down)})
	}

	for _, hook := range cfg.PreStart {
		hook(nw)
	}

	nw.StartExcept(down...)
	if err := ScheduleRestarts(nw, cfg.Restarts, cfg.N, cfg.Delta, cfg.TS); err != nil {
		return Result{}, err
	}

	decided, violation := nw.RunUntilAllDecided(cfg.Horizon)

	// A restart scheduled after the surviving processes decided still has
	// to be simulated: keep running until every restarted process has
	// decided too (decision gossip brings it up to date). This covers
	// restarts scheduled by PreStart hooks (which the harness cannot
	// enumerate) as well as cfg.Restarts.
	if violation == nil {
		ok := nw.Engine().RunUntil(func() bool {
			// A violation settles the run whatever is still due back.
			return nw.Settled() && (nw.RestartsPending() == 0 || nw.Checker().Violation() != nil)
		}, cfg.Horizon)
		decided = decided && ok
	}

	// Run-level phase spans are recorded after the fact with explicit
	// timestamps — no events scheduled, no randomness drawn — so observed
	// and unobserved runs replay identical schedules.
	collector.RecordRunPhases(cfg.TS, nw.Engine().Now())

	res := BuildResult(cfg, collector, nw.Checker(), nw.UpIDs(), decided)
	// Recovery is read from the nodes, not cfg.Restarts, so restarts
	// scheduled dynamically (PreStart fault schedules) are measured too.
	for _, id := range nw.AllIDs() {
		if rec, ok := nw.Node(id).RestartRecovery(); ok {
			res.RestartRecovery[id] = rec
		}
	}
	return res, nil
}

// Simulate builds one run's simulated cluster without starting it: the
// engine (cfg.Arena's when set), and the network under cfg's δ, TS, ρ, drift
// and PreTSPolicy, every post-TS delivery taking exactly δ under
// WorstCaseDelays. Every simulated run, Run's and scenario.Cluster's, is
// built here.
func Simulate(cfg Config, factory consensus.Factory, proposals []consensus.Value, collector *trace.Collector) (*simnet.Network, error) {
	var eng *sim.Engine
	if cfg.Arena != nil {
		eng = cfg.Arena.Engine(cfg.Seed)
	} else {
		eng = sim.NewEngine(cfg.Seed)
	}
	var minDelay time.Duration
	if cfg.WorstCaseDelays {
		minDelay = cfg.Delta
	}
	return simnet.New(eng, simnet.Config{
		N: cfg.N, Delta: cfg.Delta, TS: cfg.TS, MinDelay: minDelay,
		Policy: PreTSPolicy(cfg.Policy, cfg.TS), Rho: cfg.Rho, Drift: cfg.Drift,
		Collector: collector, Arena: cfg.Arena,
	}, factory, proposals)
}

// PreTSPolicy returns policy, or when it is nil the default pre-TS policy:
// DropAll before a positive TS, Synchronous otherwise. The simulator and the
// live backends both take it from here.
func PreTSPolicy(policy simnet.Policy, ts time.Duration) simnet.Policy {
	if policy != nil {
		return policy
	}
	if ts > 0 {
		return simnet.DropAll{}
	}
	return simnet.Synchronous{}
}

// BuildResult assembles a Result from a run's collector and safety checker.
// It is the single place the headline metrics are derived — the simulator
// path (Run) and the scenario engine's live backend both report through it,
// so decision latency against TS carries identical clamping and message
// accounting whatever the execution substrate. up lists the processes whose
// decisions bound LastDecision (those up at the end of the run);
// RestartRecovery is left empty for substrates that do not measure it.
func BuildResult(cfg Config, collector *trace.Collector, checker *consensus.SafetyChecker, up []consensus.ProcessID, decided bool) Result {
	violation := checker.Violation()
	res := Result{
		Decided:         decided && violation == nil,
		Messages:        collector.TotalSent(),
		MessagesByType:  collector.SentByType(),
		RestartRecovery: make(map[consensus.ProcessID]time.Duration),
		Collector:       collector,
		Violation:       violation,
	}
	if d, ok := checker.FirstDecision(); ok {
		res.FirstDecision = d.At
		res.Value = d.Value
	}
	if last, ok := checker.LastDecisionAmong(up); ok {
		res.LastDecision = last
		res.LatencyAfterTS = last - cfg.TS
		if res.LatencyAfterTS < 0 {
			res.LatencyAfterTS = 0
		}
	}
	return res
}

// stableLeader picks the lowest-id process not scheduled to be down.
func stableLeader(cfg Config, down []consensus.ProcessID) consensus.ProcessID {
	for i := 0; i < cfg.N; i++ {
		if id := consensus.ProcessID(i); !slices.Contains(down, id) && !StaysDown(cfg.Restarts, id) {
			return id
		}
	}
	return 0
}

// installAdversary wires the configured attack and returns the processes
// that must stay down from the start. The obsolete-message attack is
// protocol-specific (each protocol's rules bound what the adversary can
// forge), so its construction is delegated to the descriptor's hook; the
// dead-coordinator attack is plain crashes and needs no protocol knowledge.
func installAdversary(nw *simnet.Network, desc protocol.Descriptor, cfg Config) ([]consensus.ProcessID, error) {
	switch cfg.Attack {
	case "", NoAttack:
		return nil, nil

	case ObsoleteBallots:
		if cfg.AttackK == 0 {
			return nil, nil
		}
		if desc.Obsolete == nil {
			return nil, fmt.Errorf("harness: obsolete-ballot attack not defined for %q", cfg.Protocol)
		}
		// The failed process carrying the obsolete messages is the
		// highest-id process; the victims are every other non-leader.
		from := consensus.ProcessID(cfg.N - 1)
		var victims []consensus.ProcessID
		for i := 1; i < cfg.N-1; i++ {
			victims = append(victims, consensus.ProcessID(i))
		}
		desc.Obsolete(cfg.Params(), protocol.ObsoleteSpec{
			N: cfg.N, Delta: cfg.Delta, TS: cfg.TS,
			K: cfg.AttackK, From: from, Victims: victims,
		})(nw)
		return []consensus.ProcessID{from}, nil

	case DeadCoordinators:
		return adversary.CoordinatorKiller(cfg.N, cfg.AttackK), nil

	default:
		return nil, fmt.Errorf("harness: unknown attack %q", cfg.Attack)
	}
}
