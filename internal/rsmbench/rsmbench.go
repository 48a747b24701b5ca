// Package rsmbench is a multi-client workload generator for the RSM
// serving path. Clients are ordinary consensus.Processes living on node IDs
// above the replica range, so the exact same workload runs on the
// deterministic simulator (virtual-time throughput, reproducible by seed)
// and the live runtime (wall-clock throughput over the in-memory or TCP
// transport).
//
// Each client runs one session: in closed-loop mode it keeps exactly one
// operation outstanding and issues the next on commit; in open-loop mode it
// issues on a fixed interval regardless of acks. Unacked operations are
// retransmitted with their original sequence numbers, so the server's
// session dedup keeps the log exactly-once — which the run's rsm.History,
// fed by every replica incarnation and every client ack, then verifies.
package rsmbench

import (
	"fmt"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/harness"
	"repro/internal/rsm"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// doneValue is what a client "decides" when its workload completes; the
// run's safety checker then doubles as the completion barrier.
const doneValue consensus.Value = "done"

// Config parameterizes one benchmark run.
type Config struct {
	// Backend selects the substrate by its scenario.BackendNames name
	// (default sim).
	Backend string
	// N is the replica count (default 3).
	N int
	// Clients is the number of workload clients (default 8).
	Clients int
	// Ops is the number of operations per client (default 20).
	Ops int
	// Keys is the key-space size commands write into (default 16).
	Keys int
	// MaxBatch, MaxInFlight, MaxQueue and Linger pass through to
	// rsm.Config (rsm defaults apply when zero; MaxBatch=1 with
	// MaxInFlight=1 is the single-slot baseline).
	MaxBatch    int
	MaxInFlight int
	MaxQueue    int
	Linger      time.Duration
	// Delta is the network delay bound δ (default 2ms).
	Delta time.Duration
	// Seed drives the substrate's randomness (default 1).
	Seed int64
	// OpenInterval switches clients to open-loop issue at this interval
	// (0 = closed loop).
	OpenInterval time.Duration
	// Horizon bounds the run (default 5 minutes virtual on sim, scaled to
	// the op count on live).
	Horizon time.Duration
	// Observe enables span recording so the run can be exported as a
	// Chrome-trace timeline (histograms are always on).
	Observe bool

	// Restarts is the crash/restart schedule over the replicas (the run's
	// TS is 0). Crashing rsm.Leader(), the epoch-0 leader, makes clients fail
	// over to the promoted replica to finish; restarting it makes it catch up
	// and be deposed by the higher epoch.
	Restarts []harness.Restart
	// CompactEvery passes through to rsm.Config.SnapshotEvery: replicas
	// snapshot and truncate their logs every this many applied slots.
	CompactEvery int64
	// FailoverTimeout passes through to rsm.Config.FailoverTimeout. With
	// Restarts set and this zero, it defaults to 10δ so crash runs can
	// actually fail over.
	FailoverTimeout time.Duration
}

// chaos reports whether the run injects faults or compaction — the modes
// that get a settle window after the workload and a per-replica log-key
// census.
func (c Config) chaos() bool { return len(c.Restarts) > 0 || c.CompactEvery > 0 }

func (c Config) withDefaults() Config {
	if c.Backend == "" {
		c.Backend = scenario.BackendSim
	}
	if c.N == 0 {
		c.N = 3
	}
	if c.Clients == 0 {
		c.Clients = 8
	}
	if c.Ops == 0 {
		c.Ops = 20
	}
	if c.Keys == 0 {
		c.Keys = 16
	}
	if c.Delta == 0 {
		c.Delta = 2 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if len(c.Restarts) > 0 && c.FailoverTimeout == 0 {
		c.FailoverTimeout = 10 * c.Delta
	}
	if c.Horizon == 0 {
		// Generous: even the unpipelined baseline at ~4δ per op finishes a
		// serial log well inside this.
		perOp := 8 * c.Delta
		c.Horizon = time.Duration(c.Clients*c.Ops)*perOp + 10*time.Second
		if len(c.Restarts) > 0 {
			// A crash stalls the log for one silence bound plus the repair
			// round trips before clients make progress again.
			c.Horizon += c.FailoverTimeout + 50*c.Delta
		}
	}
	return c
}

// client timer IDs. The retry timer fires every 25δ, the client's
// retransmission period.
const (
	retryTimerID consensus.TimerID = 0
	issueTimerID consensus.TimerID = 1
)

// pendingOp is one issued-but-unacked operation.
type pendingOp struct {
	op     consensus.Value
	sentAt time.Duration
}

// clientProc is one workload client as a consensus.Process. It proposes to
// the RSM leader, observes commit latency and the outage of each crash into
// the shared collector, reports each first ack to the run's History, and
// "decides" doneValue when its quota is committed.
type clientProc struct {
	cfg    Config
	hist   *rsm.History
	id     consensus.ProcessID
	env    consensus.Environment
	leader consensus.ProcessID
	// outaged marks the crashes of cfg.Restarts this client has been served
	// after.
	outaged []bool
	// epoch is the highest leadership epoch seen in a Redirect; silent
	// counts consecutive unanswered retry rounds, the client's failover
	// trigger (crash runs only, mirroring rsm.Client).
	epoch  int64
	silent int

	issued  int
	acked   int
	pending map[uint64]pendingOp
	done    bool

	busy    int64
	retries int64
}

var _ consensus.Process = (*clientProc)(nil)

func newClientProc(cfg Config, id consensus.ProcessID, hist *rsm.History) *clientProc {
	return &clientProc{cfg: cfg, hist: hist, id: id, leader: rsm.Leader(), pending: make(map[uint64]pendingOp),
		outaged: make([]bool, len(cfg.Restarts))}
}

// Init implements consensus.Process.
func (c *clientProc) Init(env consensus.Environment) {
	c.env = env
	c.issueNext()
	if c.cfg.OpenInterval > 0 && c.issued < c.cfg.Ops {
		env.SetTimer(issueTimerID, c.cfg.OpenInterval)
	}
	env.SetTimer(retryTimerID, 25*c.cfg.Delta)
}

// issueNext sends the client's next operation (seq = op index + 1).
func (c *clientProc) issueNext() {
	if c.issued >= c.cfg.Ops {
		return
	}
	c.issued++
	seq := uint64(c.issued)
	key := (int(c.id) + c.issued) % c.cfg.Keys
	op := consensus.Value(fmt.Sprintf("set k%d c%d-%d", key, int(c.id), seq))
	c.pending[seq] = pendingOp{op: op, sentAt: c.env.Now()}
	consensus.BeginSpan(c.env, trace.SpanRSMOp, int64(seq))
	c.send(seq)
}

func (c *clientProc) send(seq uint64) {
	p, ok := c.pending[seq]
	if !ok {
		return
	}
	c.env.Send(c.leader, rsm.ClientPropose{Client: int64(c.id), Seq: seq, Cmd: p.op})
}

// HandleMessage implements consensus.Process.
func (c *clientProc) HandleMessage(from consensus.ProcessID, m consensus.Message) {
	switch msg := m.(type) {
	case rsm.Committed:
		p, ok := c.pending[msg.Seq]
		if !ok {
			return // duplicate ack
		}
		delete(c.pending, msg.Seq)
		c.acked++
		c.hist.Acked(int64(c.id), msg.Seq)
		if d := c.env.Now() - p.sentAt; d >= 0 {
			consensus.ObserveDuration(c.env, trace.HistCommitLatency, d)
		}
		c.observeOutage(from)
		consensus.EndSpan(c.env, trace.SpanRSMOp, int64(msg.Seq))
		c.silent = 0
		if c.acked >= c.cfg.Ops {
			c.finish()
			return
		}
		if c.cfg.OpenInterval == 0 {
			c.issueNext()
		}
	case rsm.Busy:
		// Load was shed; the retry timer re-proposes after a full period,
		// which is the client's backoff.
		c.busy++
		c.silent = 0
	case rsm.Redirect:
		if msg.Epoch < c.epoch {
			return // staler leadership view than ours
		}
		c.epoch = msg.Epoch
		c.leader = msg.Leader
		c.silent = 0
		c.resendUnacked()
	}
}

// HandleTimer implements consensus.Process.
func (c *clientProc) HandleTimer(id consensus.TimerID) {
	if c.done {
		return
	}
	switch id {
	case retryTimerID:
		if n := c.resendUnacked(); n > 0 {
			c.retries += n
			c.silent++
			if len(c.cfg.Restarts) > 0 && c.silent >= 2 {
				// Sustained silence on a crash run: treat the leader as dead
				// and rotate to the next replica, which either serves us
				// (it promoted) or answers with an epoch-stamped Redirect.
				c.leader = consensus.ProcessID((int(c.leader) + 1) % c.cfg.N)
				c.silent = 0
				c.resendUnacked()
			}
		}
		c.env.SetTimer(retryTimerID, 25*c.cfg.Delta)
	case issueTimerID:
		c.issueNext()
		if c.issued < c.cfg.Ops {
			c.env.SetTimer(issueTimerID, c.cfg.OpenInterval)
		}
	}
}

// observeOutage records, for every crash this client has not yet been
// served after, the time from the crash (the run's TS is 0) to this ack. An
// ack from the crashed replica counts only once it is back: it may have been
// sent before the crash.
func (c *clientProc) observeOutage(from consensus.ProcessID) {
	now := c.env.Now()
	for i, r := range c.cfg.Restarts {
		at := r.CrashAt.Resolve(c.cfg.Delta, 0)
		down := from == r.Proc && (r.RestartAt.IsZero() || now < r.RestartAt.Resolve(c.cfg.Delta, 0))
		if !c.outaged[i] && now >= at && !down {
			c.outaged[i] = true
			consensus.ObserveDuration(c.env, trace.HistOutage, now-at)
		}
	}
}

// resendUnacked retransmits pending operations in sequence order (session
// dedup requires a client's retries to stay ordered) and returns how many.
func (c *clientProc) resendUnacked() int64 {
	if len(c.pending) == 0 {
		return 0
	}
	lo, hi := uint64(1), uint64(c.issued)
	var n int64
	for seq := lo; seq <= hi; seq++ {
		if _, ok := c.pending[seq]; ok {
			c.send(seq)
			n++
		}
	}
	return n
}

func (c *clientProc) finish() {
	c.done = true
	c.env.CancelTimer(retryTimerID)
	c.env.CancelTimer(issueTimerID)
	c.env.Decide(doneValue)
}
