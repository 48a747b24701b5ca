package main

import (
	"math/rand"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/rsm"
)

// The load generator is one consensus.Process per generator node, so the
// identical code drives simnet (virtual time) and live.Cluster (wall time):
// every instant it reads comes from env.Now(). One node multiplexes many
// logical sessions — rsm.ClientPropose.Client is independent of the node id
// and acks are matched back through Committed.Cmd — and every session keeps
// exactly one operation outstanding. A session must not be windowed instead:
// rsm acks any Seq at or below the session's high-water mark, so a pipelined
// session over a reordering transport is acked for writes that never applied
// (check_test.go reproduces it).

// doneValue is what a generator "decides" once its whole workload is acked;
// the substrate's safety checker then doubles as the completion barrier.
const doneValue consensus.Value = "done"

// Generator timers.
const (
	arrivalTimer consensus.TimerID = 0
	retryTimer   consensus.TimerID = 1
)

// opID names one client operation.
type opID struct {
	Client int64
	Seq    uint64
}

// sample is one acknowledged operation, on the generator's clock.
type sample struct {
	lat  time.Duration // due → ack
	late time.Duration // due → first transmission (how late the generator ran)
}

// session is one logical client: at most one operation outstanding.
type session struct {
	seq  uint64
	busy bool
	// measured is false for a cool-down operation.
	measured bool
	due      time.Duration
	// firstSent and sentAt are the first and the latest transmission.
	firstSent time.Duration
	sentAt    time.Duration
	op        consensus.Value
}

// genConfig describes one generator node's share of a workload.
type genConfig struct {
	// replicas is the size of the replica group (node ids 0..replicas−1).
	replicas int
	// sessions is the number of logical sessions on this node; their client
	// ids are firstClient, firstClient+1, ...
	sessions    int
	firstClient int64
	// keys is the key space the generated "set" commands write into.
	keys int
	// seed drives the key choice (and nothing else: arrivals are precomputed
	// into schedule by the workload).
	seed int64
	// schedule holds the open-loop due instants on the generator's clock, in
	// order. Nil selects the closed loop: a session issues its next
	// operation the moment the previous one is acked.
	schedule []time.Duration
	// measured is how many leading schedule entries are measured; the rest
	// are cool-down arrivals that keep the system loaded while the measured
	// ones finish (0 = the whole schedule).
	measured int
	// retryEvery is the retransmission period for unacked operations.
	retryEvery time.Duration
	// rotateOnSilence makes the generator try the next replica after two
	// retry rounds without any reply — the client half of failover.
	rotateOnSilence bool
	// sampleCap pre-sizes the sample buffer so its growth is not billed to
	// the system's allocation count.
	sampleCap int
	// onAck, when set, observes every ack: who sent it, and when it arrived
	// on the generator's clock.
	onAck func(from consensus.ProcessID, id opID, now time.Duration)
}

// generator is one generator node.
type generator struct {
	cfg    genConfig
	env    consensus.Environment
	rng    *rand.Rand
	leader consensus.ProcessID
	epoch  int64
	silent int
	heard  bool

	sess []session
	idle []int32
	next int // open loop: next schedule entry to issue
	done bool

	samples    []sample
	busyCount  int64
	retries    int64
	backlogMax int
	opBuf      []byte

	// acked (measured operations acknowledged) and outstanding (operations
	// in flight, measured or not) are read by the live driver while the
	// node's goroutine runs; everything else is read only after the
	// substrate has stopped.
	acked       atomic.Int64
	outstanding atomic.Int64
	stop        atomic.Bool
}

var _ consensus.Process = (*generator)(nil)

func newGenerator(cfg genConfig) *generator {
	if cfg.measured == 0 {
		cfg.measured = len(cfg.schedule)
	}
	g := &generator{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.seed)),
		leader:  rsm.Leader(),
		sess:    make([]session, cfg.sessions),
		idle:    make([]int32, 0, cfg.sessions),
		samples: make([]sample, 0, cfg.sampleCap),
	}
	for i := cfg.sessions - 1; i >= 0; i-- {
		g.idle = append(g.idle, int32(i))
	}
	return g
}

// Init implements consensus.Process.
func (g *generator) Init(env consensus.Environment) {
	g.env = env
	env.SetTimer(retryTimer, g.cfg.retryEvery)
	g.pump()
}

// HandleMessage implements consensus.Process.
func (g *generator) HandleMessage(from consensus.ProcessID, m consensus.Message) {
	switch msg := m.(type) {
	case rsm.Committed:
		g.heard = true
		g.onCommitted(from, msg)
	case rsm.Busy:
		// Shed: the operation stays outstanding and the retry timer
		// re-proposes it, which is the backoff.
		g.heard = true
		g.busyCount++
	case rsm.Redirect:
		if msg.Epoch < g.epoch {
			return // staler leadership view than ours
		}
		g.heard = true
		g.epoch = msg.Epoch
		g.leader = msg.Leader
		g.resend(0)
	}
}

// HandleTimer implements consensus.Process.
func (g *generator) HandleTimer(id consensus.TimerID) {
	if g.done {
		return
	}
	switch id {
	case arrivalTimer:
		g.pump()
	case retryTimer:
		if n := g.resend(g.cfg.retryEvery); n > 0 {
			g.retries += n
			if g.heard {
				g.silent = 0
			} else {
				g.silent++
			}
			if g.cfg.rotateOnSilence && g.silent >= 2 {
				// Sustained silence: treat the leader as dead and try the next
				// replica, which either serves us or answers with an
				// epoch-stamped Redirect.
				g.leader = consensus.ProcessID((int(g.leader) + 1) % g.cfg.replicas)
				g.silent = 0
				g.resend(0)
			}
		}
		g.heard = false
		g.env.SetTimer(retryTimer, g.cfg.retryEvery)
	}
}

// pump issues everything that is due and re-arms the arrival timer. In the
// closed loop every idle session is always due.
func (g *generator) pump() {
	if g.done {
		return
	}
	now := g.env.Now()
	if g.cfg.schedule == nil {
		for len(g.idle) > 0 && !g.stop.Load() {
			g.issue(now, now, true)
		}
		return
	}
	sched := g.cfg.schedule
	for g.next < len(sched) && sched[g.next] <= now && len(g.idle) > 0 && !g.stop.Load() {
		g.issue(sched[g.next], now, g.next < g.cfg.measured)
		g.next++
	}
	if g.next < len(sched) && !g.stop.Load() {
		if wait := sched[g.next] - now; wait > 0 {
			g.env.SetTimer(arrivalTimer, wait)
		} else {
			// Arrivals are due but every session is busy: they wait in the
			// backlog until an ack frees one (onCommitted pumps again).
			backlog := 0
			for i := g.next; i < len(sched) && sched[i] <= now; i++ {
				backlog++
			}
			if backlog > g.backlogMax {
				g.backlogMax = backlog
			}
		}
	}
	if g.acked.Load() == int64(g.cfg.measured) {
		g.finish()
	}
}

// finish decides doneValue: every measured operation is acknowledged.
func (g *generator) finish() {
	g.done = true
	g.env.CancelTimer(retryTimer)
	g.env.CancelTimer(arrivalTimer)
	g.env.Decide(doneValue)
}

// issue starts the next operation of an idle session. Latency is timed from
// due, not from now.
func (g *generator) issue(due, now time.Duration, measured bool) {
	si := g.idle[len(g.idle)-1]
	g.idle = g.idle[:len(g.idle)-1]
	s := &g.sess[si]
	s.seq++
	s.busy = true
	s.measured = measured
	s.due = due
	s.firstSent = now
	s.sentAt = now
	client := g.cfg.firstClient + int64(si)
	// "set k<key> <client>.<seq>": the value names the operation, so the
	// ack (which carries Cmd and Seq but no client id) finds its session.
	b := append(g.opBuf[:0], "set k"...)
	b = strconv.AppendInt(b, int64(g.rng.Intn(g.cfg.keys)), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, client, 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, s.seq, 10)
	g.opBuf = b
	s.op = consensus.Value(b)
	g.outstanding.Add(1)
	g.env.Send(g.leader, rsm.ClientPropose{Client: client, Seq: s.seq, Cmd: s.op})
}

// clientOf parses the client id back out of a generated command.
func clientOf(cmd consensus.Value) (int64, bool) {
	s := string(cmd)
	sp := strings.LastIndexByte(s, ' ')
	dot := strings.LastIndexByte(s, '.')
	if sp < 0 || dot < sp {
		return 0, false
	}
	c, err := strconv.ParseInt(s[sp+1:dot], 10, 64)
	return c, err == nil
}

func (g *generator) onCommitted(from consensus.ProcessID, msg rsm.Committed) {
	client, ok := clientOf(msg.Cmd)
	if !ok {
		return
	}
	si := client - g.cfg.firstClient
	if si < 0 || si >= int64(len(g.sess)) {
		return
	}
	s := &g.sess[si]
	if !s.busy || s.seq != msg.Seq {
		return // duplicate ack of an earlier operation
	}
	now := g.env.Now()
	s.busy = false
	g.silent = 0
	if g.cfg.onAck != nil {
		g.cfg.onAck(from, opID{client, s.seq}, now)
	}
	g.idle = append(g.idle, int32(si))
	g.outstanding.Add(-1)
	if s.measured {
		if len(g.samples) < cap(g.samples) {
			g.samples = append(g.samples, sample{lat: now - s.due, late: s.firstSent - s.due})
		}
		g.acked.Add(1)
	}
	g.pump()
}

// resend retransmits, in session order, every outstanding operation last
// sent at least olderThan ago, and returns how many.
func (g *generator) resend(olderThan time.Duration) int64 {
	now := g.env.Now()
	var n int64
	for i := range g.sess {
		s := &g.sess[i]
		if !s.busy || now-s.sentAt < olderThan {
			continue
		}
		s.sentAt = now
		g.env.Send(g.leader, rsm.ClientPropose{Client: g.cfg.firstClient + int64(i), Seq: s.seq, Cmd: s.op})
		n++
	}
	return n
}

// ackedOps lists every acknowledged operation: a single-outstanding session
// has been acked for exactly the sequence numbers below its current one.
func (g *generator) ackedOps() []opID {
	var out []opID
	for i := range g.sess {
		s := &g.sess[i]
		top := s.seq
		if s.busy {
			top--
		}
		for q := uint64(1); q <= top; q++ {
			out = append(out, opID{g.cfg.firstClient + int64(i), q})
		}
	}
	return out
}

// poissonSchedule draws n arrival instants at the given rate (per second),
// starting after offset.
func poissonSchedule(rng *rand.Rand, n int, rate float64, offset time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	t := float64(offset)
	for i := range out {
		t += rng.ExpFloat64() / rate * float64(time.Second)
		out[i] = time.Duration(t)
	}
	return out
}
