// Package modpaxos implements the paper's modified Paxos algorithm (§4),
// the primary contribution of "How Fast Can Eventual Synchrony Lead to
// Consensus?" (Dutta, Guerraoui, Lamport, DSN 2005).
//
// The modifications over traditional Paxos are exactly the paper's:
//
//  1. Ballots are structured into sessions: session(b) = ⌊b/N⌋, and a
//     process is in session ⌊mbal/N⌋. A process may not enter session s+1
//     until (i) its session timer has expired and (ii) it is in session 0
//     or has received a message of its current session from a majority of
//     processes. This emulates how round-based algorithms cap anomalously
//     high round numbers: any message ever sent has session at most one
//     above some nonfaulty process's session (proof step 1).
//  2. Whenever a process enters a new session it resets its session timer
//     to expire between 4δ and σ (global) seconds later, which it achieves
//     by arming a local-clock timer of σ·(1−ρ); the paper's requirement
//     σ ≥ 4δ·(1+ρ)/(1−ρ) makes the global window come out right.
//  3. A process broadcasts a phase 1a message whenever it begins a new
//     session, and re-broadcasts one every ε if it has sent no phase 1a/2a
//     message in the last ε seconds (the heartbeat that restores
//     communication after stabilization).
//  4. There is no leader election and no Reject message. Leadership is
//     implicit: the owner of the highest ballot in the newest session wins.
//
// Every process nonfaulty at TS decides by TS + ε + 3τ + 5δ with
// τ = max(2δ+ε, σ) — about TS + 17δ for σ ≈ 4δ and ε ≪ δ (claim C3).
package modpaxos

import (
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/core/consensus"
	"repro/internal/storage"
)

// Timer identifiers.
const (
	// sessionTimer is the paper's session timer.
	sessionTimer consensus.TimerID = 1
	// heartbeatTimer drives the ε-periodic phase 1a re-broadcast.
	heartbeatTimer consensus.TimerID = 2
	// gossipTimer re-broadcasts the decision after deciding.
	gossipTimer consensus.TimerID = 3
)

// stateKey is the stable-storage key holding durable state.
const stateKey = storage.KeyModPaxosState

// Config holds the algorithm parameters. All of Delta, Sigma, Eps are as in
// the paper; Rho is the clock-rate error bound used to budget local timers.
type Config struct {
	// Delta is δ, the known post-stabilization delivery bound.
	Delta time.Duration
	// Sigma is σ, the upper edge of the session-timeout window. It must
	// satisfy σ ≥ 4δ·(1+ρ)/(1−ρ); zero selects the smallest legal value
	// rounded up 5% for slack.
	Sigma time.Duration
	// Eps is ε, the heartbeat interval (an arbitrary positive O(δ)
	// value); zero selects δ/2.
	Eps time.Duration
	// Rho is ρ, the clock-rate error bound.
	Rho float64
	// GossipInterval is the decided-value re-broadcast period (default 2δ).
	GossipInterval time.Duration
	// DisableEntryRule is an ABLATION switch: it drops condition (ii) of
	// Start Phase 1 (the majority-session-entry rule) and lets a process
	// adopt any ballot regardless of session. With it off, the paper's
	// step-1 invariant fails and obsolete high-session messages can
	// disrupt the algorithm — the experiment that shows why the rule
	// exists.
	DisableEntryRule bool
	// DisableHeartbeat is an ABLATION switch: it removes the ε-periodic
	// phase 1a re-broadcast. With all pre-TS messages lost, nothing
	// restores communication after TS and the algorithm loses liveness.
	DisableHeartbeat bool
	// Prepared bootstraps the stable-state fast path (§4, "Reducing
	// Message Complexity"): all processes start with mbal equal to
	// process 0's session-1 ballot, and process 0 behaves as if phase 1
	// had completed in advance, sending phase 2a immediately. Decisions
	// then take 3 message delays, like ordinary stable-state Paxos.
	Prepared bool
}

func (c Config) withDefaults() (Config, error) {
	if c.Delta <= 0 {
		return c, fmt.Errorf("modpaxos: Delta must be positive, got %v", c.Delta)
	}
	if c.Rho < 0 || c.Rho >= 1 {
		return c, fmt.Errorf("modpaxos: Rho must be in [0,1), got %v", c.Rho)
	}
	minSigma := clock.SigmaFor(c.Delta, c.Rho)
	if c.Sigma == 0 {
		c.Sigma = minSigma + minSigma/20
	}
	if c.Sigma < minSigma {
		return c, fmt.Errorf("modpaxos: Sigma %v below 4δ(1+ρ)/(1−ρ) = %v", c.Sigma, minSigma)
	}
	if c.Eps == 0 {
		c.Eps = c.Delta / 2
	}
	if c.Eps < 0 {
		return c, fmt.Errorf("modpaxos: Eps must be positive, got %v", c.Eps)
	}
	if c.GossipInterval == 0 {
		c.GossipInterval = 2 * c.Delta
	}
	return c, nil
}

// sessionTimerLocal is the local-clock duration to arm the session timer
// with: σ·(1−ρ) local seconds fire after global time in
// [σ·(1−ρ)/(1+ρ), σ] ⊇ [4δ, σ] given the σ constraint.
func (c Config) sessionTimerLocal() time.Duration {
	return time.Duration(float64(c.Sigma) * (1 - c.Rho))
}

// durable is the stable-storage image — mbal "and the rest of its state"
// (§2). Sent2a/Chosen must be durable: a ballot owner that crashes after
// sending phase 2a and restarts must never send a different value at the
// same ballot (equivocation would break the quorum-intersection argument).
type durable struct {
	MBal    consensus.Ballot
	ABal    consensus.Ballot
	AVal    consensus.Value
	Sent2a  bool
	Chosen  consensus.Value
	Decided bool
	Dec     consensus.Value
}

// Process is one modified-Paxos participant.
type Process struct {
	id       consensus.ProcessID
	n        int
	cfg      Config
	proposal consensus.Value
	env      consensus.Environment

	st durable

	// contacts is the set of processes from which we have received a
	// message of our current session (condition (ii) of Start Phase 1);
	// it always contains the process itself.
	contacts consensus.Tally[bool]
	// timerExpired records that the session timer has fired and Start
	// Phase 1 is pending condition (ii).
	timerExpired bool

	// Ballot-owner bookkeeping (meaningful while we own mbal).
	p1bs consensus.Tally[P1b]

	// p2bs holds the latest phase 2b from each process.
	p2bs consensus.Tally[P2b]

	// lastAnnounce is the local time of the last phase 1a/2a send.
	lastAnnounce time.Duration

	// The phase 1b answer and the decision, boxed once while unchanged:
	// heartbeats re-elicit the same phase 1b, and a decided process answers
	// everything with the same Decided.
	p1bReply     consensus.Reply[P1b]
	decidedReply consensus.Reply[Decided]
}

var _ consensus.Process = (*Process)(nil)

// New returns a Factory producing modified-Paxos processes, or an error for
// invalid parameters.
func New(cfg Config) (consensus.Factory, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return func(id consensus.ProcessID, n int, proposal consensus.Value) consensus.Process {
		return &Process{id: id, n: n, cfg: cfg, proposal: proposal}
	}, nil
}

// MustNew is New for callers with static configs; it panics on invalid
// parameters.
func MustNew(cfg Config) consensus.Factory {
	f, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return f
}

// Init implements consensus.Process. On a restart the process resumes from
// stable storage with a fresh session timer, as the paper prescribes.
func (p *Process) Init(env consensus.Environment) {
	p.env = env
	p.resetContacts()
	p.p1bs.Reset(p.n)
	p.p2bs.Reset(p.n)

	ok, err := env.Store().Get(stateKey, &p.st)
	if err != nil {
		env.Logf("modpaxos: restore: %v", err)
	}
	if !ok {
		// First boot: initial mbal[p] = p (session 0), or the prepared
		// fast-path state.
		p.st = durable{MBal: consensus.Ballot(p.id), ABal: consensus.NoBallot}
		if p.cfg.Prepared {
			p.st.MBal = consensus.BallotFor(1, 0, p.n)
		}
		p.persist()
	}
	if p.st.Decided {
		p.env.Decide(p.st.Dec)
		p.env.Broadcast(p.decidedReply.Box(Decided{Val: p.st.Dec}))
		p.env.SetTimer(gossipTimer, p.cfg.GossipInterval)
		return
	}

	p.env.Emit("session", p.session())
	consensus.BeginSpan(p.env, "session", p.session())

	switch {
	case p.cfg.Prepared && p.id == 0 && !p.st.Sent2a && p.proposal != "" &&
		p.st.MBal == consensus.BallotFor(1, 0, p.n) && p.st.ABal == consensus.NoBallot:
		// Phase 1 was executed in advance: go straight to phase 2a.
		p.st.Sent2a = true
		p.st.Chosen = p.proposal
		p.persist()
		p.announce2a()
	case p.st.Sent2a && p.ownsBallot():
		// Restarted mid-ballot: re-announce the same chosen value.
		p.announce2a()
	default:
		p.announce1a()
	}

	// "Session timers are set initially to time out within σ seconds."
	p.env.SetTimer(sessionTimer, p.cfg.sessionTimerLocal())
	if !p.cfg.DisableHeartbeat {
		p.env.SetTimer(heartbeatTimer, p.cfg.Eps)
	}
}

func (p *Process) persist() {
	if err := p.env.Store().Put(stateKey, &p.st); err != nil {
		p.env.Logf("modpaxos: persist: %v", err)
	}
}

// resetContacts empties the contact set down to the process itself.
func (p *Process) resetContacts() {
	p.contacts.Reset(p.n)
	p.contacts.Set(p.id, true)
}

func (p *Process) session() int64   { return p.st.MBal.Session(p.n) }
func (p *Process) majority() int    { return consensus.Majority(p.n) }
func (p *Process) ownsBallot() bool { return p.st.MBal.Owner(p.n) == p.id }

func (p *Process) announce1a() {
	p.lastAnnounce = p.env.Now()
	p.env.Broadcast(P1a{Bal: p.st.MBal})
}

func (p *Process) announce2a() {
	p.lastAnnounce = p.env.Now()
	p.env.Broadcast(P2a{Bal: p.st.MBal, Val: p.st.Chosen})
}

// HandleMessage implements consensus.Process.
func (p *Process) HandleMessage(from consensus.ProcessID, m consensus.Message) {
	if p.st.Decided {
		// A decided process answers everything by announcing its value.
		if _, isDecided := m.(Decided); !isDecided {
			p.env.Send(from, p.decidedReply.Box(Decided{Val: p.st.Dec}))
		}
		if d, isDecided := m.(Decided); isDecided {
			p.decide(d.Val)
		}
		return
	}
	switch msg := m.(type) {
	case P1a:
		p.witness(from, msg.Bal)
		p.onP1a(msg)
	case P1b:
		p.witness(from, msg.Bal)
		p.onP1b(from, msg)
	case P2a:
		p.witness(from, msg.Bal)
		p.onP2a(msg)
	case P2b:
		p.witness(from, msg.Bal)
		p.onP2b(from, msg)
	case Decided:
		p.decide(msg.Val)
	}
}

// witness folds a received message into the session machinery: messages of
// a higher ballot advance mbal (possibly entering a new session), and
// messages of the current session accumulate toward condition (ii).
func (p *Process) witness(from consensus.ProcessID, b consensus.Ballot) {
	if b > p.st.MBal {
		p.adopt(b)
	}
	if b.Session(p.n) == p.session() {
		p.contacts.Set(from, true)
		p.maybeStartPhase1()
	}
}

// adopt raises mbal to b; entering a new session resets the session state.
func (p *Process) adopt(b consensus.Ballot) {
	oldSession := p.session()
	p.st.MBal = b
	p.st.Sent2a = false
	p.persist()
	p.p1bs.Reset(p.n)
	if b.Session(p.n) > oldSession {
		p.enterSession()
	}
}

// enterSession performs the bookkeeping common to every session entry:
// reset the contact set, reset the session timer to the [4δ, σ] window, and
// broadcast a phase 1a announcing the session (modification 3).
func (p *Process) enterSession() {
	p.resetContacts()
	p.timerExpired = false
	p.env.SetTimer(sessionTimer, p.cfg.sessionTimerLocal())
	p.env.Emit("session", p.session())
	// A begin for an already-open span kind closes the previous session, so
	// session progression renders as adjacent phase spans.
	consensus.BeginSpan(p.env, "session", p.session())
	p.announce1a()
}

// maybeStartPhase1 executes Start Phase 1 if both enabling conditions hold:
// (i) the session timer has expired, and (ii) session 0 or a majority of
// current-session contacts.
func (p *Process) maybeStartPhase1() {
	if !p.timerExpired {
		return
	}
	if !p.cfg.DisableEntryRule && p.session() != 0 && p.contacts.Len() < p.majority() {
		return
	}
	// mbal ← (⌊mbal/N⌋ + 1)·N + p.
	p.st.MBal = consensus.BallotFor(p.session()+1, p.id, p.n)
	p.st.Sent2a = false
	p.persist()
	p.p1bs.Reset(p.n)
	p.enterSession()
}

func (p *Process) onP1a(m P1a) {
	if m.Bal < p.st.MBal {
		return // no Reject action in the modified algorithm
	}
	// m.Bal == mbal here (witness already adopted any higher ballot).
	// Answer the ballot's owner, also on duplicates: heartbeat 1a
	// messages re-elicit 1b messages lost before stabilization.
	p.env.Send(m.Bal.Owner(p.n), p.p1bReply.Box(P1b{Bal: m.Bal, ABal: p.st.ABal, AVal: p.st.AVal}))
}

func (p *Process) onP1b(from consensus.ProcessID, m P1b) {
	if m.Bal != p.st.MBal || !p.ownsBallot() {
		return
	}
	if p.st.Sent2a {
		// Targeted retransmit for a straggler.
		p.env.Send(from, P2a{Bal: p.st.MBal, Val: p.st.Chosen})
		return
	}
	p.p1bs.Set(from, m)
	if p.p1bs.Len() < p.majority() {
		return
	}
	// Start Phase 2 with the value of the highest acceptance, or our own
	// proposal if the quorum reported none.
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
	p.announce2a()
}

func (p *Process) onP2a(m P2a) {
	if m.Bal < p.st.MBal {
		return
	}
	p.st.ABal = m.Bal
	p.st.AVal = m.Val
	p.persist()
	p.env.Broadcast(P2b{Bal: m.Bal, Val: m.Val})
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

// HandleTimer implements consensus.Process.
func (p *Process) HandleTimer(id consensus.TimerID) {
	switch id {
	case sessionTimer:
		if p.st.Decided {
			return
		}
		p.timerExpired = true
		p.maybeStartPhase1()
	case heartbeatTimer:
		if p.st.Decided {
			return
		}
		// Modification 3: re-broadcast phase 1a if quiet for ε.
		if p.env.Now()-p.lastAnnounce >= p.cfg.Eps {
			p.announce1a()
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
	consensus.EndSpan(p.env, "session", p.session())
	p.env.CancelTimer(sessionTimer)
	p.env.CancelTimer(heartbeatTimer)
	p.env.Broadcast(p.decidedReply.Box(Decided{Val: v}))
	p.env.SetTimer(gossipTimer, p.cfg.GossipInterval)
}

// Claim jumps an undecided instance to the ballot this process owns in the
// given session and opens phase 1 immediately, bypassing the session-timer
// wait. It is the hook a replicated-state-machine layer uses to hand a
// failed-over leader the initiative the prepared session-1 owner enjoys:
// claiming a session above every earlier epoch's gives the new leader's
// proposals a dominating ballot without burning σ waiting for the crashed
// owner's ballot to expire — and without it, each of its proposals would
// duel the other followers' NoOp recovery ballots. A claim at or below the
// current ballot is ignored, as is one on a decided instance.
func (p *Process) Claim(session int64) {
	if p.st.Decided {
		return
	}
	b := consensus.BallotFor(session, p.id, p.n)
	if b <= p.st.MBal {
		return
	}
	p.st.MBal = b
	p.st.Sent2a = false
	p.persist()
	p.p1bs.Reset(p.n)
	p.enterSession()
}

// DecisionBound returns the paper's decision-time bound after TS:
// ε + 3τ + 5δ with τ = max(2δ+ε, σ). Experiments compare measurements
// against this.
func DecisionBound(cfg Config) (time.Duration, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return 0, err
	}
	tau := 2*cfg.Delta + cfg.Eps
	if cfg.Sigma > tau {
		tau = cfg.Sigma
	}
	return cfg.Eps + 3*tau + 5*cfg.Delta, nil
}
