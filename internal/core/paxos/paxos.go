// Package paxos implements the traditional Paxos consensus algorithm
// exactly as recalled in §2 of the paper: ballot numbers in stable storage,
// an external leader-election oracle, spontaneous Start Phase 1 by the
// leader, and Reject messages that force the leader to higher ballots.
//
// This is the baseline whose worst case the paper criticizes: obsolete
// pre-stabilization messages carrying anomalously high ballot numbers can
// force the leader through O(N) Reject/retry cycles, so consensus can take
// O(Nδ) after stabilization (Table 5 of cmd/experiments measures it). The
// modified algorithm that fixes this is in internal/core/modpaxos.
package paxos

import (
	"time"

	"repro/internal/core/consensus"
	"repro/internal/leader"
	"repro/internal/storage"
)

// Timer identifiers.
const (
	// tickTimer drives the leader's spontaneous Start Phase 1 and, after
	// deciding, the periodic decision broadcast.
	tickTimer consensus.TimerID = 1
)

// stateKey is the stable-storage key holding durable state.
const stateKey = storage.KeyPaxosState

// Config holds the tunable parameters of the baseline.
type Config struct {
	// Delta is δ; it sizes the retry interval.
	Delta time.Duration
	// RetryInterval is how often the leader spontaneously re-executes
	// Start Phase 1 ("every O(δ) seconds"). Default 6δ — long enough for
	// a full 4δ round plus slack, so the leader does not trample its own
	// in-flight ballot.
	RetryInterval time.Duration
	// GossipInterval is how often a decided process re-broadcasts its
	// decision. Default 2δ.
	GossipInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.RetryInterval == 0 {
		c.RetryInterval = 6 * c.Delta
	}
	if c.GossipInterval == 0 {
		c.GossipInterval = 2 * c.Delta
	}
	return c
}

// durable is the stable-storage image ("the process keeps mbal[p] and the
// rest of its state in stable storage").
type durable struct {
	MBal consensus.Ballot
	ABal consensus.Ballot
	AVal consensus.Value
	// Sent2a/Chosen are durable so a leader restarting mid-ballot cannot
	// send a second, different value at the same ballot.
	Sent2a  bool
	Chosen  consensus.Value
	Decided bool
	Dec     consensus.Value
}

// Process is one traditional-Paxos participant.
type Process struct {
	id       consensus.ProcessID
	n        int
	cfg      Config
	proposal consensus.Value
	env      consensus.Environment

	st durable

	// Volatile per-ballot bookkeeping.
	leader  consensus.ProcessID // current oracle belief; -1 = unknown
	p1bs    consensus.Tally[P1b]
	p2bs    consensus.Tally[P2b]
	started bool // executed Start Phase 1 at least once for current mbal

	// The phase 1b answer and the decision, boxed once while unchanged.
	p1bReply     consensus.Reply[P1b]
	decidedReply consensus.Reply[Decided]
}

var _ consensus.Process = (*Process)(nil)

// New returns a Factory producing traditional-Paxos processes.
func New(cfg Config) consensus.Factory {
	cfg = cfg.withDefaults()
	return func(id consensus.ProcessID, n int, proposal consensus.Value) consensus.Process {
		return &Process{id: id, n: n, cfg: cfg, proposal: proposal, leader: -1}
	}
}

// Reuse implements consensus.Reuser: p takes over old's tallies and replies.
func (p *Process) Reuse(old consensus.Process) {
	if o, ok := old.(*Process); ok {
		p.p1bs, p.p2bs, p.p1bReply, p.decidedReply = o.p1bs, o.p2bs, o.p1bReply, o.decidedReply
		*o = Process{}
	}
}

// Init implements consensus.Process. On restart it resumes from stable
// storage, exactly as §2 prescribes.
func (p *Process) Init(env consensus.Environment) {
	p.env = env
	p.p1bs.Reset(p.n)
	p.p2bs.Reset(p.n)

	ok, err := env.Store().Get(stateKey, &p.st)
	if err != nil {
		env.Logf("paxos: restore: %v", err)
	}
	if !ok {
		// First boot: initial mbal[p] = p (the paper's convention).
		p.st = durable{MBal: consensus.Ballot(p.id), ABal: consensus.NoBallot}
		p.persist()
	}
	if p.st.Decided {
		env.Decide(p.st.Dec)
		env.Broadcast(p.decidedReply.Box(Decided{Val: p.st.Dec}))
	}
	env.SetTimer(tickTimer, p.cfg.RetryInterval)
}

func (p *Process) persist() {
	if err := p.env.Store().Put(stateKey, &p.st); err != nil {
		p.env.Logf("paxos: persist: %v", err)
	}
}

func (p *Process) majority() int { return consensus.Majority(p.n) }

// HandleMessage implements consensus.Process.
func (p *Process) HandleMessage(from consensus.ProcessID, m consensus.Message) {
	// A decided process answers everything with its decision (the
	// "respond to every message by announcing the value" optimization).
	if p.st.Decided {
		if _, isDecided := m.(Decided); !isDecided {
			p.env.Send(from, p.decidedReply.Box(Decided{Val: p.st.Dec}))
		}
	}
	switch msg := m.(type) {
	case leader.Announce:
		p.onLeader(msg)
	case P1a:
		p.onP1a(from, msg)
	case P1b:
		p.onP1b(from, msg)
	case P2a:
		p.onP2a(from, msg)
	case P2b:
		p.onP2b(from, msg)
	case Reject:
		p.onReject(msg)
	case Decided:
		p.decide(msg.Val)
	}
}

// HandleTimer implements consensus.Process.
func (p *Process) HandleTimer(id consensus.TimerID) {
	if id != tickTimer {
		return
	}
	switch {
	case p.st.Decided:
		p.env.Broadcast(p.decidedReply.Box(Decided{Val: p.st.Dec}))
		p.env.SetTimer(tickTimer, p.cfg.GossipInterval)
	case p.leader == p.id:
		// Spontaneous Start Phase 1 "every O(δ) seconds".
		p.startPhase1(p.st.MBal + 1)
		p.env.SetTimer(tickTimer, p.cfg.RetryInterval)
	default:
		p.env.SetTimer(tickTimer, p.cfg.RetryInterval)
	}
}

func (p *Process) onLeader(msg leader.Announce) {
	wasLeader := p.leader == p.id
	p.leader = msg.Leader
	if !wasLeader && p.leader == p.id && !p.st.Decided {
		// Newly elected: start a ballot immediately rather than waiting
		// for the next tick.
		p.startPhase1(p.st.MBal + 1)
	}
}

// startPhase1 executes the Start Phase 1 action with the smallest ballot
// ≥ atLeast owned by p ("increase mbal[p] to an arbitrary value congruent to
// p mod N").
func (p *Process) startPhase1(atLeast consensus.Ballot) {
	if p.st.Decided || p.leader != p.id {
		return
	}
	b := nextOwned(atLeast, p.id, p.n)
	if b <= p.st.MBal {
		b = nextOwned(p.st.MBal+1, p.id, p.n)
	}
	p.st.MBal = b
	p.st.Sent2a = false
	p.persist()
	p.p1bs.Reset(p.n)
	p.p2bs.Reset(p.n)
	p.started = true
	p.env.Emit("ballot", int64(b))
	consensus.BeginSpan(p.env, "ballot", int64(b))
	p.env.Broadcast(P1a{Bal: b})
}

// nextOwned returns the smallest ballot ≥ atLeast congruent to owner mod n.
func nextOwned(atLeast consensus.Ballot, owner consensus.ProcessID, n int) consensus.Ballot {
	session := atLeast.Session(n)
	b := consensus.BallotFor(session, owner, n)
	if b < atLeast {
		b = consensus.BallotFor(session+1, owner, n)
	}
	return b
}

func (p *Process) onP1a(from consensus.ProcessID, m P1a) {
	owner := m.Bal.Owner(p.n)
	switch {
	case m.Bal > p.st.MBal:
		p.st.MBal = m.Bal
		p.st.Sent2a = false
		p.persist()
		p.env.Send(owner, p.p1bReply.Box(P1b{Bal: m.Bal, ABal: p.st.ABal, AVal: p.st.AVal}))
	case m.Bal == p.st.MBal:
		// Duplicate of the current ballot: re-answer (Paxos tolerates
		// duplication; this restores 1b messages lost before TS).
		p.env.Send(owner, p.p1bReply.Box(P1b{Bal: m.Bal, ABal: p.st.ABal, AVal: p.st.AVal}))
	default:
		// Reject Message action: tell the ballot's owner our mbal.
		p.env.Send(owner, Reject{Bal: p.st.MBal})
	}
}

func (p *Process) onP1b(from consensus.ProcessID, m P1b) {
	if m.Bal != p.st.MBal || p.st.MBal.Owner(p.n) != p.id || !p.started {
		return
	}
	if p.st.Sent2a {
		// Late or re-sent 1b: retransmit 2a to that process only, in case
		// our earlier 2a was lost before stabilization.
		p.env.Send(from, P2a{Bal: p.st.MBal, Val: p.st.Chosen})
		return
	}
	p.p1bs.Set(from, m)
	if p.p1bs.Len() < p.majority() {
		return
	}
	// Start Phase 2: choose the value of the highest-ballot acceptance
	// reported, or our own proposal if none.
	val := p.proposal
	best := consensus.NoBallot
	for _, b1 := range p.p1bs.All() {
		if b1.ABal > best {
			best = b1.ABal
			val = b1.AVal
		}
	}
	p.st.Sent2a = true
	p.st.Chosen = val
	p.persist()
	p.env.Broadcast(P2a{Bal: p.st.MBal, Val: val})
}

func (p *Process) onP2a(from consensus.ProcessID, m P2a) {
	if m.Bal >= p.st.MBal {
		p.st.MBal = m.Bal
		p.st.ABal = m.Bal
		p.st.AVal = m.Val
		p.persist()
		// Phase 2b goes to every process: everyone is a learner.
		p.env.Broadcast(P2b{Bal: m.Bal, Val: m.Val})
	} else {
		p.env.Send(m.Bal.Owner(p.n), Reject{Bal: p.st.MBal})
	}
}

func (p *Process) onP2b(from consensus.ProcessID, m P2b) {
	p.p2bs.Set(from, m)
	count := 0
	for _, b2 := range p.p2bs.All() {
		if b2.Bal == m.Bal {
			count++
		}
	}
	if count >= p.majority() {
		p.decide(m.Val)
	}
}

func (p *Process) onReject(m Reject) {
	if p.leader != p.id || p.st.Decided {
		return
	}
	if m.Bal >= p.st.MBal {
		// A higher ballot is out there; retry above it. This is the loop
		// the obsolete-ballot adversary drives O(N) times.
		p.startPhase1(m.Bal + 1)
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
	consensus.EndSpan(p.env, "ballot", int64(p.st.MBal))
	p.env.Broadcast(p.decidedReply.Box(Decided{Val: v}))
	p.env.SetTimer(tickTimer, p.cfg.GossipInterval)
}
