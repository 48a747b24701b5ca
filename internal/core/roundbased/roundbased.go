// Package roundbased implements the classic rotating-coordinator
// round-based consensus algorithm discussed in §3 of the paper (the shape
// of Dwork-Lynch-Stockmeyer and Chandra-Toueg ◇S algorithms), including the
// majority-round-entry rule the paper highlights:
//
//	"… not allowing a process spontaneously to enter round i+1 until it has
//	 learned that a majority of the processes have begun round i."
//
// That rule eliminates the obsolete-message problem (no round number can
// run ahead of the nonfaulty majority by more than one), but it does not fix
// the coordinator problem: round r is coordinated by process r mod N, and up
// to ⌈N/2⌉−1 consecutive coordinators may have failed before stabilization,
// each costing a timeout of Θ = O(δ). Hence this algorithm needs O(Nδ)
// after TS in the worst case (claim C2), which is what the paper's modified
// Paxos avoids.
//
// Round structure (standard ◇S skeleton, locked by (estimate, tsRound)):
//
//  1. On entering round r every process broadcasts InRound{r} and sends
//     Estimate{r, est, tsRound} to the coordinator, then arms a timer Θ.
//  2. The coordinator, on a majority of estimates, broadcasts
//     Coord{r, v} where v is the estimate with the highest tsRound.
//  3. On Coord{r, v} a process adopts (est, tsRound) = (v, r), persists,
//     and sends Ack{r} to the coordinator.
//  4. The coordinator, on a majority of acks, broadcasts Decided{v}.
//  5. On timeout a process wants round r+1; it may enter it only once it
//     has seen InRound{r} from a majority (counting itself). Receiving
//     any message of a round j > r jumps straight to round j.
package roundbased

import (
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/core/consensus"
	"repro/internal/storage"
)

// Timer identifiers.
const (
	// roundTimer expires a round that is making no progress.
	roundTimer consensus.TimerID = 1
	// gossipTimer re-broadcasts the decision after deciding.
	gossipTimer consensus.TimerID = 2
)

// stateKey is the stable-storage key holding durable state.
const stateKey = storage.KeyRoundBasedState

// Config holds the algorithm parameters.
type Config struct {
	// Delta is δ.
	Delta time.Duration
	// Theta is the round timeout measured in global time; it must cover a
	// full round trip through the coordinator (≥ 4δ). Zero selects 5δ.
	// The local timer is budgeted with Rho so it never fires before
	// Theta global seconds.
	Theta time.Duration
	// Rho is the clock-rate error bound.
	Rho float64
	// GossipInterval is the decided-value re-broadcast period (default 2δ).
	GossipInterval time.Duration
}

func (c Config) withDefaults() (Config, error) {
	if c.Delta <= 0 {
		return c, fmt.Errorf("roundbased: Delta must be positive, got %v", c.Delta)
	}
	if c.Rho < 0 || c.Rho >= 1 {
		return c, fmt.Errorf("roundbased: Rho must be in [0,1), got %v", c.Rho)
	}
	if c.Theta == 0 {
		c.Theta = 5 * c.Delta
	}
	if c.Theta < 4*c.Delta {
		return c, fmt.Errorf("roundbased: Theta %v below 4δ = %v", c.Theta, 4*c.Delta)
	}
	if c.GossipInterval == 0 {
		c.GossipInterval = 2 * c.Delta
	}
	return c, nil
}

// durable is the stable-storage image: the (est, tsRound) lock plus the
// round number, so a restarted process cannot regress.
type durable struct {
	Est     consensus.Value
	TSRound int64 // last round whose coordinator updated Est; -1 initially
	Round   int64
	// CoordRound/CoordVal record the last round this process coordinated
	// a value for: a coordinator restarting mid-round must re-send the
	// same value, never pick a second one for the same round.
	CoordRound int64
	CoordVal   consensus.Value
	Decided    bool
	Dec        consensus.Value
}

// Process is one round-based participant.
type Process struct {
	id  consensus.ProcessID
	n   int
	cfg Config
	env consensus.Environment

	st durable

	// timedOut is set when the round timer fires; the process then wants
	// round+1 and enters it as soon as the majority-entry rule allows.
	timedOut bool
	// inRound tracks which processes are known to have begun the current
	// round (from InRound and any other current-round message).
	inRound consensus.Tally[bool]
	// Coordinator bookkeeping for the current round.
	estimates consensus.Tally[Estimate]
	sentCoord bool
	coordVal  consensus.Value
	acks      consensus.Tally[bool]

	// decidedReply is the decision, boxed once: a decided process answers
	// everything with it.
	decidedReply consensus.Reply[Decided]
}

var _ consensus.Process = (*Process)(nil)

// New returns a Factory producing round-based processes, or an error for
// invalid parameters.
func New(cfg Config) (consensus.Factory, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return func(id consensus.ProcessID, n int, proposal consensus.Value) consensus.Process {
		return &Process{id: id, n: n, cfg: cfg, st: durable{Est: proposal, TSRound: -1, CoordRound: -1}}
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

// Reuse implements consensus.Reuser: p takes over old's tallies (which only
// a round entry resets, but a decided process never reads) and reply.
func (p *Process) Reuse(old consensus.Process) {
	if o, ok := old.(*Process); ok {
		p.inRound, p.estimates, p.acks, p.decidedReply = o.inRound, o.estimates, o.acks, o.decidedReply
		*o = Process{}
	}
}

// Init implements consensus.Process.
func (p *Process) Init(env consensus.Environment) {
	p.env = env
	var st durable
	if ok, err := env.Store().Get(stateKey, &st); err != nil {
		env.Logf("roundbased: restore: %v", err)
	} else if ok {
		p.st = st
	} else {
		p.persist()
	}
	if p.st.Decided {
		env.Decide(p.st.Dec)
		env.Broadcast(p.decidedReply.Box(Decided{Val: p.st.Dec}))
		env.SetTimer(gossipTimer, p.cfg.GossipInterval)
		return
	}
	p.enterRound(p.st.Round)
}

func (p *Process) persist() {
	if err := p.env.Store().Put(stateKey, &p.st); err != nil {
		p.env.Logf("roundbased: persist: %v", err)
	}
}

func (p *Process) majority() int { return consensus.Majority(p.n) }

func (p *Process) coordinator(r int64) consensus.ProcessID {
	return consensus.ProcessID(r % int64(p.n))
}

// enterRound resets per-round state, announces the round, and sends the
// estimate to the coordinator.
func (p *Process) enterRound(r int64) {
	p.st.Round = r
	p.persist()
	p.timedOut = false
	p.inRound.Reset(p.n)
	p.inRound.Set(p.id, true)
	p.estimates.Reset(p.n)
	p.sentCoord = false
	p.acks.Reset(p.n)
	p.env.Emit("round", r)
	consensus.BeginSpan(p.env, "round", r)

	p.env.Broadcast(InRound{Round: r})
	p.env.Send(p.coordinator(r), Estimate{Round: r, Est: p.st.Est, TSRound: p.st.TSRound})
	p.env.SetTimer(roundTimer, clock.TimerBudget(p.cfg.Theta, p.cfg.Rho))
}

// witness folds any received message into round bookkeeping: higher rounds
// cause a jump, current-round messages mark the sender as in-round.
func (p *Process) witness(from consensus.ProcessID, r int64) bool {
	if r > p.st.Round {
		p.enterRound(r)
	}
	if r == p.st.Round {
		p.inRound.Set(from, true)
		p.maybeAdvance()
	}
	return r == p.st.Round
}

// maybeAdvance spontaneously enters round+1 if the timer has expired and a
// majority is known to have begun the current round (the paper's rule).
func (p *Process) maybeAdvance() {
	if !p.timedOut || p.st.Decided {
		return
	}
	if p.inRound.Len() < p.majority() {
		return
	}
	p.enterRound(p.st.Round + 1)
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
	case InRound:
		p.witness(from, msg.Round)
	case Estimate:
		if !p.witness(from, msg.Round) {
			return
		}
		p.onEstimate(from, msg)
	case Coord:
		if !p.witness(from, msg.Round) {
			return
		}
		p.onCoord(msg)
	case Ack:
		if !p.witness(from, msg.Round) {
			return
		}
		p.onAck(from, msg)
	case Decided:
		p.decide(msg.Val)
	}
}

// onEstimate runs at the coordinator: with a majority of estimates, pick the
// one with the highest tsRound and broadcast it.
func (p *Process) onEstimate(from consensus.ProcessID, m Estimate) {
	if p.coordinator(p.st.Round) != p.id {
		return
	}
	if p.sentCoord {
		// Late estimate (e.g. its sender just jumped to our round):
		// retransmit the coordination message to that process only.
		p.env.Send(from, Coord{Round: p.st.Round, V: p.coordVal})
		return
	}
	if p.st.CoordRound == p.st.Round {
		// Restarted mid-round after already coordinating a value for it:
		// re-send the recorded value; choosing again could equivocate.
		p.sentCoord = true
		p.coordVal = p.st.CoordVal
		p.env.Broadcast(Coord{Round: p.st.Round, V: p.coordVal})
		return
	}
	p.estimates.Set(from, m)
	if p.estimates.Len() < p.majority() {
		return
	}
	// Pick the estimate with the highest tsRound. Ties are legitimate (all
	// initial estimates carry tsRound -1 with distinct values) and go to
	// the lowest sender: the tally is visited in ascending sender order and
	// only a strictly higher tsRound displaces the pick.
	best := Estimate{TSRound: -2}
	for _, e := range p.estimates.All() {
		if e.TSRound > best.TSRound {
			best = e
		}
	}
	p.sentCoord = true
	p.coordVal = best.Est
	p.st.CoordRound = p.st.Round
	p.st.CoordVal = best.Est
	p.persist()
	p.env.Broadcast(Coord{Round: p.st.Round, V: best.Est})
}

// onCoord adopts the coordinator's value, locking (est, tsRound).
func (p *Process) onCoord(m Coord) {
	p.st.Est = m.V
	p.st.TSRound = p.st.Round
	p.persist()
	p.env.Send(p.coordinator(p.st.Round), Ack{Round: p.st.Round})
}

// onAck runs at the coordinator: a majority of acks means a majority locked
// the value — decide and tell everyone.
func (p *Process) onAck(from consensus.ProcessID, m Ack) {
	if p.coordinator(p.st.Round) != p.id || !p.sentCoord {
		return
	}
	p.acks.Set(from, true)
	if p.acks.Len() >= p.majority() {
		p.decide(p.coordVal)
	}
}

// HandleTimer implements consensus.Process.
func (p *Process) HandleTimer(id consensus.TimerID) {
	switch id {
	case roundTimer:
		if p.st.Decided {
			return
		}
		p.timedOut = true
		// Re-announce the round and re-send the estimate: the originals
		// may have been lost before stabilization, and the announcements
		// are what lets others satisfy the majority-entry rule.
		p.env.Broadcast(InRound{Round: p.st.Round})
		p.env.Send(p.coordinator(p.st.Round), Estimate{Round: p.st.Round, Est: p.st.Est, TSRound: p.st.TSRound})
		p.env.SetTimer(roundTimer, clock.TimerBudget(p.cfg.Theta, p.cfg.Rho))
		p.maybeAdvance()
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
	p.env.CancelTimer(roundTimer)
	p.env.Broadcast(p.decidedReply.Box(Decided{Val: v}))
	p.env.SetTimer(gossipTimer, p.cfg.GossipInterval)
}
