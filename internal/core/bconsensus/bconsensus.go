// Package bconsensus implements the modified B-Consensus algorithm
// sketched in §5 of the paper: the leaderless round-based algorithm of
// Pedone, Schiper, Urbán and Cavin, driven by a message-delivery oracle,
// modified so it reaches consensus within O(δ) of stabilization.
//
// The paper does not reprint the pseudo-code of B-Consensus, so this is a
// reconstruction (documented below) of the standard Ben-Or-shaped
// algorithm over a weak ordering oracle, with exactly the property the
// paper relies on: a round reaches consensus if more than N/2 processes are
// nonfaulty and all messages w-abcast in that round are delivered by the
// oracle to all processes in the same order.
//
// Round r has three stages:
//
//	stage 1  w-abcast ⟨r, est⟩ through the oracle; adopt the value of the
//	         FIRST oracle-delivered round-r message as est.
//	stage 2  send ⟨FIRST, r, est⟩ to all; on a majority of FIRST votes,
//	         set maj := v if ≥ ⌈(N+1)/2⌉ of them carry the same v, else ⊥.
//	stage 3  send ⟨SECOND, r, maj⟩ to all; on a majority of SECOND votes:
//	         if any carries v ≠ ⊥, set est := v; if a majority carry the
//	         same v ≠ ⊥, decide v; otherwise enter round r+1.
//
// Safety is the Ben-Or argument: two non-⊥ maj values would need two
// intersecting majorities of FIRST votes, and a decision forces every
// process completing the round to adopt v (every majority of SECOND votes
// intersects the deciding majority).
//
// The paper's modifications, all implemented here:
//
//   - The oracle is implemented with Lamport-timestamped broadcast plus a
//     2δ hold-back, delivering in (timestamp, sender) order
//     (internal/oracle). After stabilization all processes deliver round
//     messages in the same order, so the first stage adopts the same value
//     everywhere and the round decides.
//   - Round entry respects the majority rule implicitly: a process
//     advances from r to r+1 only after a majority of SECOND votes, whose
//     senders are all in round r. Hence no message can carry a round more
//     than one above some nonfaulty process's round, bounding obsolete
//     messages exactly as in §4's step 1.
//   - Round jumping: a message of round j > r moves the process straight
//     to round j — it does not execute rounds r+1..j−1. The jumper adopts
//     the message's Est, which preserves the locking invariant (any
//     process in a round after a decision carries the decided value), so
//     jumping is safe.
package bconsensus

import (
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/core/consensus"
	"repro/internal/oracle"
	"repro/internal/storage"
)

// Timer identifiers.
const (
	// oracleTimer fires at the hold-back queue's next delivery deadline.
	oracleTimer consensus.TimerID = 1
	// heartbeatTimer retransmits the current stage's message every ε.
	heartbeatTimer consensus.TimerID = 2
	// gossipTimer re-broadcasts the decision after deciding.
	gossipTimer consensus.TimerID = 3
)

// stateKey is the stable-storage key holding durable state.
const stateKey = storage.KeyBConsensusState

// Config holds the algorithm parameters.
type Config struct {
	// Delta is δ; the oracle hold-back is 2δ (budgeted against Rho).
	Delta time.Duration
	// Eps is the retransmission interval (default δ/2).
	Eps time.Duration
	// Rho is the clock-rate error bound.
	Rho float64
	// GossipInterval is the decided-value re-broadcast period (default 2δ).
	GossipInterval time.Duration
}

func (c Config) withDefaults() (Config, error) {
	if c.Delta <= 0 {
		return c, fmt.Errorf("bconsensus: Delta must be positive, got %v", c.Delta)
	}
	if c.Rho < 0 || c.Rho >= 1 {
		return c, fmt.Errorf("bconsensus: Rho must be in [0,1), got %v", c.Rho)
	}
	if c.Eps == 0 {
		c.Eps = c.Delta / 2
	}
	if c.Eps < 0 {
		return c, fmt.Errorf("bconsensus: Eps must be positive, got %v", c.Eps)
	}
	if c.GossipInterval == 0 {
		c.GossipInterval = 2 * c.Delta
	}
	return c, nil
}

// holdLocal is the local-clock hold-back duration: 2δ·(1+ρ) local seconds
// never elapse in less than 2δ global seconds.
func (c Config) holdLocal() time.Duration {
	return clock.TimerBudget(2*c.Delta, c.Rho)
}

// Stage numbers within a round.
const (
	stageWab    = 1
	stageFirst  = 2
	stageSecond = 3
)

// durable is the stable-storage image. The Lamport clock is durable so a
// restarted process never reuses a timestamp (oracle deduplication relies
// on (timestamp, sender) uniqueness). The per-round votes are durable so a
// process restarting mid-round re-sends the votes it already cast instead
// of voting again — double voting would break the majority-intersection
// arguments behind both stage 2 and stage 3.
type durable struct {
	Round   int64
	Est     consensus.Value
	LC      uint64
	Decided bool
	Dec     consensus.Value

	// Votes cast in round Round.
	FirstVoted  bool
	FirstVal    consensus.Value
	SecondVoted bool
	SecondHasV  bool
	SecondVal   consensus.Value
}

// secondVote is a recorded stage-3 vote.
type secondVote struct {
	hasV bool
	v    consensus.Value
}

// Process is one B-Consensus participant.
type Process struct {
	id  consensus.ProcessID
	n   int
	cfg Config
	env consensus.Environment

	st durable
	lc clock.Lamport

	stage int
	// wabLC is the timestamp of this round's w-abcast (retransmissions
	// reuse it: they are the same logical message).
	wabLC uint64
	hb    oracle.Holdback
	// firstDelivered records, per round, the estimate of the first
	// oracle-delivered message of that round.
	firstDelivered map[int64]consensus.Value
	// firstVotes and secondVotes hold the current round's stage-2 and
	// stage-3 votes. One tally each is enough: witness moves the process to
	// a vote's round before the vote is counted, so a vote is for the
	// current round or for one that is over and never looked at again.
	firstVotes  consensus.Tally[consensus.Value]
	secondVotes consensus.Tally[secondVote]
	maj         consensus.Value
	hasMaj      bool

	// The stage-1 retransmit and the decision, boxed once while unchanged:
	// a round's w-abcast repeats with its original timestamp every ε, and a
	// decided process answers everything with the same Decided.
	wabReply     consensus.Reply[Wab]
	decidedReply consensus.Reply[Decided]
}

var _ consensus.Process = (*Process)(nil)

// New returns a Factory producing B-Consensus processes, or an error for
// invalid parameters.
func New(cfg Config) (consensus.Factory, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return func(id consensus.ProcessID, n int, proposal consensus.Value) consensus.Process {
		return &Process{id: id, n: n, cfg: cfg, st: durable{Est: proposal}}
	}, nil
}

// MustNew is New for static configs; it panics on invalid parameters.
func MustNew(cfg Config) consensus.Factory {
	f, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return f
}

// Reuse implements consensus.Reuser: p takes over old's queue, map, tallies, replies.
func (p *Process) Reuse(old consensus.Process) {
	if o, ok := old.(*Process); ok {
		p.hb, p.firstDelivered, p.firstVotes, p.secondVotes = o.hb, o.firstDelivered, o.firstVotes, o.secondVotes
		p.wabReply, p.decidedReply = o.wabReply, o.decidedReply
		*o = Process{}
	}
}

// Init implements consensus.Process.
func (p *Process) Init(env consensus.Environment) {
	p.env = env
	clear(p.firstDelivered)
	if p.firstDelivered == nil {
		p.firstDelivered = make(map[int64]consensus.Value)
	}
	p.hb.Reset(p.n)
	p.firstVotes.Reset(p.n)
	p.secondVotes.Reset(p.n)

	var st durable
	if ok, err := env.Store().Get(stateKey, &st); err != nil {
		env.Logf("bconsensus: restore: %v", err)
	} else if ok {
		p.st = st
	} else {
		p.persist()
	}
	// Resume the Lamport clock strictly above its persisted value so a
	// restarted process never reuses a timestamp.
	p.lc = clock.Lamport{}
	if p.st.LC > 0 {
		p.lc.Witness(p.st.LC)
	}
	if p.st.Decided {
		env.Decide(p.st.Dec)
		env.Broadcast(p.decidedReply.Box(Decided{Val: p.st.Dec}))
		env.SetTimer(gossipTimer, p.cfg.GossipInterval)
		return
	}
	p.resumeRound()
	env.SetTimer(heartbeatTimer, p.cfg.Eps)
}

func (p *Process) persist() {
	p.st.LC = p.lc.Now()
	if err := p.env.Store().Put(stateKey, &p.st); err != nil {
		p.env.Logf("bconsensus: persist: %v", err)
	}
}

func (p *Process) majority() int { return consensus.Majority(p.n) }

// tick advances and persists the Lamport clock for an outgoing message.
func (p *Process) tick() uint64 {
	ts := p.lc.Tick()
	p.persist()
	return ts
}

// enterRound begins round r at stage 1: w-abcast the estimate and, if the
// oracle already delivered a round-r message (possible after a jump),
// adopt it immediately. Entering a round clears the durable vote record —
// this is a NEW round, distinct from resumeRound.
func (p *Process) enterRound(r int64) {
	p.st.Round = r
	p.st.FirstVoted = false
	p.st.SecondVoted = false
	p.stage = stageWab
	p.hasMaj = false
	p.firstVotes.Reset(p.n)
	p.secondVotes.Reset(p.n)
	p.env.Emit("round", r)
	consensus.BeginSpan(p.env, "round", r)
	p.wabLC = p.tick()
	p.env.Broadcast(p.wabReply.Box(Wab{LC: p.wabLC, Round: r, Est: p.st.Est}))
	p.maybeAdoptFirst()
}

// resumeRound re-enters the stored round after a restart, replaying any
// votes already cast instead of casting fresh ones.
func (p *Process) resumeRound() {
	p.env.Emit("round", p.st.Round)
	consensus.BeginSpan(p.env, "round", p.st.Round)
	p.wabLC = p.tick()
	p.env.Broadcast(p.wabReply.Box(Wab{LC: p.wabLC, Round: p.st.Round, Est: p.st.Est}))
	switch {
	case p.st.SecondVoted:
		p.stage = stageSecond
		p.hasMaj = p.st.SecondHasV
		p.maj = p.st.SecondVal
		p.env.Broadcast(Second{LC: p.tick(), Round: p.st.Round, Est: p.st.Est, HasV: p.hasMaj, V: p.maj})
		p.maybeCloseSecond()
	case p.st.FirstVoted:
		p.stage = stageFirst
		p.env.Broadcast(First{LC: p.tick(), Round: p.st.Round, Est: p.st.FirstVal})
		p.maybeCloseFirst()
	default:
		p.stage = stageWab
		p.hasMaj = false
		p.maybeAdoptFirst()
	}
}

// maybeAdoptFirst completes stage 1 when the first round-r oracle delivery
// is known.
func (p *Process) maybeAdoptFirst() {
	if p.stage != stageWab {
		return
	}
	v, ok := p.firstDelivered[p.st.Round]
	if !ok {
		return
	}
	p.st.Est = v
	p.st.FirstVoted = true
	p.st.FirstVal = v
	p.stage = stageFirst
	p.persist()
	p.env.Broadcast(First{LC: p.tick(), Round: p.st.Round, Est: p.st.Est})
	p.maybeCloseFirst()
}

// maybeCloseFirst completes stage 2 on a majority of FIRST votes.
func (p *Process) maybeCloseFirst() {
	if p.stage != stageFirst {
		return
	}
	if p.firstVotes.Len() < p.majority() {
		return
	}
	// A value voted by a majority of all N processes is also a strict
	// majority of the votes in hand, so it can only be the candidate a
	// Boyer–Moore pass leaves standing; a count settles whether it is one.
	var cand consensus.Value
	lead := 0
	for _, v := range p.firstVotes.All() {
		switch {
		case lead == 0:
			cand, lead = v, 1
		case v == cand:
			lead++
		default:
			lead--
		}
	}
	count := 0
	for _, v := range p.firstVotes.All() {
		if v == cand {
			count++
		}
	}
	p.hasMaj = count >= p.majority()
	if p.hasMaj {
		p.maj = cand
	}
	p.stage = stageSecond
	p.st.SecondVoted = true
	p.st.SecondHasV = p.hasMaj
	p.st.SecondVal = p.maj
	p.env.Broadcast(Second{LC: p.tick(), Round: p.st.Round, Est: p.st.Est, HasV: p.hasMaj, V: p.maj})
	p.maybeCloseSecond()
}

// maybeCloseSecond completes stage 3 on a majority of SECOND votes:
// adopt any non-⊥ value, decide on a majority of non-⊥ votes, otherwise
// next round.
func (p *Process) maybeCloseSecond() {
	if p.stage != stageSecond {
		return
	}
	if p.secondVotes.Len() < p.majority() {
		return
	}
	nonBot := 0
	var v consensus.Value
	for _, sv := range p.secondVotes.All() {
		if sv.hasV {
			nonBot++
			// Ben-Or lemma: every non-⊥ SECOND vote of a round carries the
			// same value (it derives from a majority of FIRST votes).
			v = sv.v
		}
	}
	if nonBot > 0 {
		p.st.Est = v
		p.persist()
	}
	if nonBot >= p.majority() {
		p.decide(v)
		return
	}
	p.enterRound(p.st.Round + 1)
}

// witness handles round bookkeeping for any received protocol message:
// jumping adopts the sender's estimate (see the package comment for why
// that preserves safety).
func (p *Process) witness(lcTS uint64, round int64, est consensus.Value) {
	p.lc.Witness(lcTS)
	if round > p.st.Round {
		p.st.Est = est
		p.enterRound(round)
	}
}

// HandleMessage implements consensus.Process.
func (p *Process) HandleMessage(from consensus.ProcessID, m consensus.Message) {
	if p.st.Decided {
		if _, isDecided := m.(Decided); !isDecided {
			p.env.Send(from, p.decidedReply.Box(Decided{Val: p.st.Dec}))
		}
		if d, isDecided := m.(Decided); isDecided {
			p.decide(d.Val)
		}
		return
	}
	switch msg := m.(type) {
	case Wab:
		p.witness(msg.LC, msg.Round, msg.Est)
		// Into the hold-back queue; actual w-adelivery happens on the
		// oracle timer, in (timestamp, sender) order. The queue holds the
		// message as it arrived — m, not msg, which would be boxed afresh.
		p.hb.Add(oracle.Item{
			TS:      msg.LC,
			Sender:  int(from),
			ReadyAt: p.env.Now() + p.cfg.holdLocal(),
			Payload: m,
		})
		p.armOracleTimer()
	case First:
		p.witness(msg.LC, msg.Round, msg.Est)
		if msg.Round == p.st.Round {
			p.firstVotes.Set(from, msg.Est)
			p.maybeCloseFirst()
		}
	case Second:
		p.witness(msg.LC, msg.Round, msg.Est)
		if msg.Round == p.st.Round {
			p.secondVotes.Set(from, secondVote{hasV: msg.HasV, v: msg.V})
			p.maybeCloseSecond()
		}
	case Decided:
		p.decide(msg.Val)
	}
}

// armOracleTimer (re)arms the oracle timer for the hold-back queue's next
// delivery deadline.
func (p *Process) armOracleTimer() {
	deadline, ok := p.hb.NextDeadline()
	if !ok {
		return
	}
	// Floor the re-arm delay at 1µs: clock-drift conversions round
	// through floats, and a zero-delay timer could otherwise re-fire at
	// the same instant without the local clock ever passing the deadline.
	d := deadline - p.env.Now()
	if d < time.Microsecond {
		d = time.Microsecond
	}
	p.env.SetTimer(oracleTimer, d)
}

// HandleTimer implements consensus.Process.
func (p *Process) HandleTimer(id consensus.TimerID) {
	switch id {
	case oracleTimer:
		if p.st.Decided {
			return
		}
		for _, it := range p.hb.Ready(p.env.Now()) {
			msg := it.Payload.(Wab)
			if _, ok := p.firstDelivered[msg.Round]; !ok {
				p.firstDelivered[msg.Round] = msg.Est
				p.env.Emit("wadeliver", msg.Round)
			}
			if msg.Round == p.st.Round {
				p.maybeAdoptFirst()
			}
		}
		p.armOracleTimer()
	case heartbeatTimer:
		if p.st.Decided {
			return
		}
		// Retransmit the current stage's message; pre-stabilization
		// losses make this necessary for liveness. The w-abcast reuses
		// its original timestamp (it is the same logical message, and
		// the oracle deduplicates by (timestamp, sender)).
		switch p.stage {
		case stageWab:
			p.env.Broadcast(p.wabReply.Box(Wab{LC: p.wabLC, Round: p.st.Round, Est: p.st.Est}))
		case stageFirst:
			p.env.Broadcast(First{LC: p.tick(), Round: p.st.Round, Est: p.st.Est})
		case stageSecond:
			p.env.Broadcast(Second{LC: p.tick(), Round: p.st.Round, Est: p.st.Est, HasV: p.hasMaj, V: p.maj})
		}
		p.env.SetTimer(heartbeatTimer, p.cfg.Eps)
	case gossipTimer:
		if p.st.Decided {
			p.env.Broadcast(p.decidedReply.Box(Decided{Val: p.st.Dec}))
			p.env.SetTimer(gossipTimer, p.cfg.GossipInterval)
		}
	}
}

func (p *Process) decide(v consensus.Value) {
	if p.st.Decided {
		return
	}
	p.st.Decided = true
	p.st.Dec = v
	p.persist()
	p.env.Decide(v)
	consensus.EndSpan(p.env, "round", p.st.Round)
	p.env.CancelTimer(oracleTimer)
	p.env.CancelTimer(heartbeatTimer)
	p.env.Broadcast(p.decidedReply.Box(Decided{Val: v}))
	p.env.SetTimer(gossipTimer, p.cfg.GossipInterval)
}
