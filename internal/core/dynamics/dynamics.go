// Package dynamics implements the population-dynamics family: gossip
// protocols in which every process holds an opinion (initially its
// proposal) and, once per round, pulls the state of k uniformly random
// processes (with replacement, self included) and applies a local update
// rule. The papers specify nothing but that rule, so the package is one
// Process — round pacing, sampling, termination, durability — and a table
// of rules (rules.go), each a few fields of data and a pure function.
// Adding a rule is a row there, not a package.
//
// Termination is the same local criterion for every rule: a process whose
// own opinion equalled every sample through a streak of consecutive rounds
// decides it and broadcasts Decided; everyone else adopts that decision on
// receipt, without re-broadcasting. The streak is c·log₂(n)+4 rounds, c=2
// for a one-sample rule and c=1 for k ≥ 2 (a unanimous round already needs
// k independent agreeing samples), which makes a lucky streak before global
// convergence a ≤ 1/n²-per-window event while adding only O(log n) rounds;
// the run's safety checker guards decisions as it does any protocol's.
//
// Rounds are paced by a local timer of 3δ (a query/reply round trip is 2δ)
// plus a uniform jitter from [0, δ), so the population's rounds interleave
// and the first Decided broadcast suppresses most of the others. Minority
// dynamics is the exception; synchronicity is load-bearing there, as
// arXiv:2310.13558's title says. Writing a for one opinion's population
// fraction and b = 1−a, a synchronous round maps a to b³+3ab², whose
// derivative at a = ½ is −3/2: balance is an unstable oscillating fixed
// point, so sampling noise is amplified until the whole population holds
// one opinion and then flips it every round. Jittered updates erode
// emerging majorities node by node instead, so a lockstep rule arms its
// timer without jitter: with undrifted clocks (ρ=0) every round timer fires
// at the same virtual instant, and because queries sent at a round boundary
// are delivered strictly later, every process steps on the previous round's
// opinions — a genuinely synchronous update. The streak stays sound through
// the oscillation because a process always samples the generation its own
// opinion belongs to. Nonzero ρ desynchronizes the rounds and the rule may
// stall at a mixed equilibrium; that failure mode is the paper's subject,
// not a bug, and minority is exercised at small n only.
//
// These are gossip protocols, not agreement protocols in the source paper's
// model: their guarantees are probabilistic and about N → ∞. Every
// descriptor is therefore Hidden — the rules run when named (the
// population-dynamics scenarios and sweeps) but never join the default
// paper comparisons at N=5 — and none declares a DecisionBound: O(log n)
// rounds w.h.p. is not a worst-case latency.
package dynamics

import (
	"fmt"
	"math/bits"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/storage"
)

// roundTimer drives the sampling rounds.
const roundTimer consensus.TimerID = 1

// maxSamples bounds a rule's sample size, so replies land in a fixed array.
const maxSamples = 3

// Config holds the parameters shared by every rule.
type Config struct {
	// Delta is δ; rounds are 3δ apart on the local clock.
	Delta time.Duration
	// Rho is the clock-rate error bound; the round pacing is the only timer,
	// and any nonzero value desynchronizes a lockstep rule's rounds.
	Rho float64
}

// New validates the configuration and returns a process factory for the
// named rule.
func New(name string, cfg Config) (consensus.Factory, error) {
	var r *rule
	for i := range rules {
		if rules[i].name == name {
			r = &rules[i]
		}
	}
	if r == nil {
		return nil, fmt.Errorf("dynamics: unknown rule %q", name)
	}
	if cfg.Delta <= 0 {
		return nil, fmt.Errorf("dynamics: Delta must be positive, got %v", cfg.Delta)
	}
	if cfg.Rho < 0 || cfg.Rho >= 1 {
		return nil, fmt.Errorf("dynamics: Rho must be in [0,1), got %v", cfg.Rho)
	}
	return func(id consensus.ProcessID, n int, proposal consensus.Value) consensus.Process {
		return &Process{
			rule:      r,
			n:         n,
			delta:     cfg.Delta,
			streakLen: r.streakLogs*bits.Len(uint(n)) + 4,
			cur:       opinion{val: proposal},
		}
	}, nil
}

// opinion is the state the dynamics evolve and a sample reports. undecided
// is USD's third state, in which val is stale; no other rule produces it.
type opinion struct {
	val       consensus.Value
	undecided bool
}

// durable is the stable-storage image: the opinion survives a restart so a
// revived process rejoins the dynamics where it left off.
type durable struct {
	Opinion   consensus.Value
	Undecided bool
	Decided   bool
}

// Process is one participant of the dynamics its rule selects.
type Process struct {
	rule      *rule
	n         int
	delta     time.Duration
	streakLen int
	env       consensus.Environment

	cur opinion
	// other is the last opinion seen that differed from the process's own —
	// in a binary population, the complement. Volatile: a restarted process
	// re-learns it from its first mixed sample.
	other consensus.Value
	round int64
	// sample holds the round's replies in arrival order; got counts them.
	sample [maxSamples]opinion
	got    int
	// streak counts consecutive unanimous rounds; streakLen of them decide.
	streak  int
	decided bool
}

// Init implements consensus.Process.
func (p *Process) Init(env consensus.Environment) {
	p.env = env
	var st durable
	if ok, err := env.Store().Get(storage.KeyDynamicsState, &st); err == nil && ok {
		p.cur = opinion{val: st.Opinion, undecided: st.Undecided}
		p.decided = st.Decided
	}
	if p.decided {
		p.env.Decide(p.cur.val)
		return
	}
	p.beginRound()
	p.armRound()
}

// HandleMessage implements consensus.Process.
func (p *Process) HandleMessage(from consensus.ProcessID, m consensus.Message) {
	switch m := m.(type) {
	case Query:
		// Answer with the current state; decided processes answer with
		// their decision, pulling stragglers forward.
		p.env.Send(from, Reply{Round: m.Round, Opinion: p.cur.val, Undecided: p.cur.undecided})
	case Reply:
		if p.decided || m.Round != p.round || p.got >= p.rule.samples {
			return
		}
		if m.Opinion != p.cur.val {
			p.other = m.Opinion
		}
		p.sample[p.got] = opinion{val: m.Opinion, undecided: m.Undecided}
		p.got++
	case Decided:
		p.adopt(m.Val)
	}
}

// HandleTimer implements consensus.Process. A round whose replies did not
// all arrive in time is abandoned without a step.
func (p *Process) HandleTimer(id consensus.TimerID) {
	if id != roundTimer || p.decided {
		return
	}
	if p.got == p.rule.samples {
		p.step()
		if p.decided {
			return
		}
	}
	p.beginRound()
	p.armRound()
}

// beginRound starts the next sampling round: query the rule's number of
// uniformly random processes.
func (p *Process) beginRound() {
	p.round++
	p.got = 0
	for i := 0; i < p.rule.samples; i++ {
		peer := consensus.ProcessID(p.env.Rand().Intn(p.n))
		p.env.Send(peer, Query{Round: p.round})
	}
}

// armRound schedules the next tick: 3δ, plus jitter unless the rule is lockstep.
func (p *Process) armRound() {
	interval := 3 * p.delta
	if !p.rule.lockstep {
		interval += time.Duration(p.env.Rand().Int63n(int64(p.delta)))
	}
	p.env.SetTimer(roundTimer, interval)
}

// step applies the update rule to the completed round's samples and
// advances the decision streak.
func (p *Process) step() {
	samples := p.sample[:p.rule.samples]
	// Unanimity is judged on the pre-update state, the opinion the samples
	// answered alongside; minority's update then moves away from exactly
	// the unanimous sample that extended the streak.
	unanimous := !p.cur.undecided
	for _, s := range samples {
		if s != p.cur {
			unanimous = false
		}
	}
	if next := p.rule.update(p.cur, samples, p.other); next != p.cur {
		if next.val != p.cur.val {
			p.other = p.cur.val
		}
		p.cur = next
		p.persist()
	}
	if unanimous {
		p.streak++
	} else {
		p.streak = 0
	}
	if p.streak >= p.streakLen {
		p.decided = true
		p.persist()
		p.env.CancelTimer(roundTimer)
		p.env.Decide(p.cur.val)
		// One broadcast per threshold decision; adopters stay silent, so
		// the decision wave is O(deciders·n) deliveries, not O(n²) always.
		p.env.Broadcast(Decided{Val: p.cur.val})
	}
}

// adopt takes a decision learned from a Decided broadcast. Decisions are
// sticky: a process that already decided ignores later broadcasts (any
// conflict is the original deciders' and the safety checker flags it).
func (p *Process) adopt(v consensus.Value) {
	if p.decided {
		return
	}
	p.decided = true
	p.cur = opinion{val: v}
	p.persist()
	p.env.CancelTimer(roundTimer)
	p.env.Decide(v)
}

// persist writes the durable image; failures are logged, not fatal (the
// in-memory state remains correct for this incarnation).
func (p *Process) persist() {
	st := durable{Opinion: p.cur.val, Undecided: p.cur.undecided, Decided: p.decided}
	if err := p.env.Store().Put(storage.KeyDynamicsState, st); err != nil {
		p.env.Logf("dynamics: persist: %v", err)
	}
}
