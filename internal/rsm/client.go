package rsm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/live"
)

// RegisterMessages does nothing: every RSM message reaches the wire through
// its codec in wire.go, registered at package initialization. It remains
// only because bench/serve.go and bench/layers.go, which this repository's
// benchmark freezes, still call it; nothing else may.
func RegisterMessages() {}

// ClientStats counts a client's traffic for observability and tests.
type ClientStats struct {
	// Ops is the number of committed proposals.
	Ops int64
	// Retries counts proposal retransmissions (timeout slices, redirects).
	Retries int64
	// Busy counts Busy rejections received.
	Busy int64
	// Redirects counts leader redirections followed.
	Redirects int64
	// InboxDrops counts replies shed because the bounded inbox was full.
	InboxDrops int64
}

// Client talks to a live replica group through the same transport the
// replicas use. It registers itself under an ID outside the replica range
// (clients are not consensus participants) and runs one session: every
// proposal carries (client, seq), so server-side dedup makes its
// retransmissions exactly-once at apply time.
type Client struct {
	id        consensus.ProcessID
	transport live.Transport

	mu      sync.Mutex
	inbox   chan consensus.Message
	timeout time.Duration
	// retryEvery is the in-flight retransmission period; timeouts are only
	// reached after several retransmissions have gone unanswered.
	retryEvery time.Duration
	seq        uint64
	reqID      uint64
	// leader is the replica proposals currently aim at, remembered across
	// operations; epoch is the highest leadership epoch seen in a
	// Redirect, so stale redirects (a deposed leader pointing backwards)
	// are ignored.
	leader consensus.ProcessID
	epoch  int64
	// replicas, when set via SetReplicas, lets the client rotate to the
	// next replica after clientFailoverAfter silent retries — the
	// treat-silence-as-failover trigger.
	replicas int

	ops, retries, busy, redirects, inboxDrops atomic.Int64
}

// NewClient registers a client with the transport. The id must not collide
// with any replica ID (use N, N+1, ...).
func NewClient(id consensus.ProcessID, transport live.Transport) *Client {
	c := &Client{
		id:         id,
		transport:  transport,
		inbox:      make(chan consensus.Message, 64),
		timeout:    5 * time.Second,
		retryEvery: 250 * time.Millisecond,
		leader:     Leader(),
	}
	transport.Register(id, func(_ consensus.ProcessID, m consensus.Message) {
		select {
		case c.inbox <- m:
		default:
			// Bounded inbox: shed and count. Replies are retransmitted by
			// the retry loop (proposals) or the server (parked queries), so
			// a shed reply delays an operation instead of losing it.
			c.inboxDrops.Add(1)
		}
	})
	return c
}

// SetTimeout adjusts the per-operation timeout (default 5s).
func (c *Client) SetTimeout(d time.Duration) {
	c.timeout = d
	if c.retryEvery > d/4 {
		c.retryEvery = d / 4
	}
}

// SetRetryInterval adjusts the retransmission period (default 250ms,
// clamped to a quarter of the timeout by SetTimeout).
func (c *Client) SetRetryInterval(d time.Duration) {
	if d > 0 {
		c.retryEvery = d
	}
}

// clientFailoverAfter is how many consecutive unanswered retransmissions a
// client tolerates before treating leader silence as a crash and rotating
// to the next replica (SetReplicas must have been called).
const clientFailoverAfter = 2

// SetReplicas tells the client the replica-group size, enabling silence
// failover: after clientFailoverAfter unanswered retries the client aims at
// the next replica instead of retrying a dead leader until the deadline.
func (c *Client) SetReplicas(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.replicas = n
}

// Stats returns a snapshot of the client's counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Ops:        c.ops.Load(),
		Retries:    c.retries.Load(),
		Busy:       c.busy.Load(),
		Redirects:  c.redirects.Load(),
		InboxDrops: c.inboxDrops.Load(),
	}
}

// Propose submits a command to the replica group and blocks until it is
// applied in a slot. Retries (on Busy, Redirect, or silence) reuse the same
// session sequence number, so the command executes exactly once even when
// proposed repeatedly.
func (c *Client) Propose(cmd consensus.Value) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	seq := c.seq
	send := func() {
		c.transport.Send(c.id, c.leader, ClientPropose{Client: int64(c.id), Seq: seq, Cmd: cmd})
	}
	send()
	// The client only exists on the live side (it blocks a real goroutine
	// on a live.Transport inbox); simulated runs drive replicas through
	// injected ClientPropose events instead, so these timers never tick
	// under the deterministic engine.
	deadline := time.NewTimer(c.timeout) //repro:allow detlint live-only client, wall-clock timeouts by design
	defer deadline.Stop()
	retry := time.NewTimer(c.retryEvery) //repro:allow detlint live-only client, wall-clock timeouts by design
	defer retry.Stop()
	backoff := c.retryEvery
	silent := 0
	for {
		select {
		case m := <-c.inbox:
			switch msg := m.(type) {
			case Committed:
				if msg.Seq == seq {
					c.ops.Add(1)
					return msg.Slot, nil
				}
				// An ack for an earlier (already returned) proposal: ignore.
			case Redirect:
				if msg.Epoch < c.epoch {
					// Staler leadership view than ours: ignore.
					continue
				}
				c.epoch = msg.Epoch
				c.leader = msg.Leader
				silent = 0
				c.redirects.Add(1)
				c.retries.Add(1)
				send()
				resetTimer(retry, c.retryEvery)
			case Busy:
				// Rejected, nothing queued: back off before retrying.
				c.busy.Add(1)
				silent = 0
				backoff *= 2
				if backoff > c.timeout/2 {
					backoff = c.timeout / 2
				}
				resetTimer(retry, backoff)
			}
		case <-retry.C:
			c.retries.Add(1)
			silent++
			if c.replicas > 1 && silent >= clientFailoverAfter {
				// Treat sustained silence as a leader crash: re-aim at the
				// next replica. A follower answers with an epoch-stamped
				// Redirect to the real leader; a dead one stays silent and
				// the rotation continues (bounded by the retry cadence).
				c.leader = consensus.ProcessID((int(c.leader) + 1) % c.replicas)
				silent = 0
			}
			send()
			retry.Reset(c.retryEvery)
		case <-deadline.C:
			return 0, fmt.Errorf("rsm: propose %q timed out after %v", cmd, c.timeout)
		}
	}
}

// Get reads the applied value of key from one replica, waiting until the
// replica has applied at least minApplied slots (0 = read immediately).
// The replica parks unsatisfiable queries and answers when its log catches
// up, so the client blocks on its inbox instead of sleep-polling;
// retransmissions only cover lost messages.
func (c *Client) Get(replica consensus.ProcessID, key string, minApplied int64) (string, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reqID++
	req := Query{Key: key, MinApplied: minApplied, ReqID: c.reqID}
	c.transport.Send(c.id, replica, req)
	// Live-only, as in Propose: wall-clock timeouts are the intended
	// behavior for a real client goroutine.
	deadline := time.NewTimer(c.timeout) //repro:allow detlint live-only client, wall-clock timeouts by design
	defer deadline.Stop()
	retry := time.NewTimer(c.retryEvery) //repro:allow detlint live-only client, wall-clock timeouts by design
	defer retry.Stop()
	backoff := c.retryEvery
	for {
		select {
		case m := <-c.inbox:
			switch msg := m.(type) {
			case QueryReply:
				if msg.ReqID == req.ReqID {
					return msg.Value, msg.Found, nil
				}
			case Busy:
				c.busy.Add(1)
				backoff *= 2
				if backoff > c.timeout/2 {
					backoff = c.timeout / 2
				}
				resetTimer(retry, backoff)
			}
		case <-retry.C:
			c.retries.Add(1)
			c.transport.Send(c.id, replica, req)
			retry.Reset(c.retryEvery)
		case <-deadline.C:
			return "", false, fmt.Errorf("rsm: get %q from p%d timed out", key, replica)
		}
	}
}

// resetTimer safely re-arms a timer whose previous duration may not have
// elapsed.
func resetTimer(t *time.Timer, d time.Duration) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	t.Reset(d)
}
