package live

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/simnet"
)

// PolicyTransportConfig maps a simnet pre-stabilization policy onto
// wall-clock time.
type PolicyTransportConfig struct {
	// Policy rules every message sent before TS (nil means Synchronous).
	// Fates are translated verbatim: Drop loses the message, Delay and
	// Duplicates become wall-clock timer offsets from the send instant.
	Policy simnet.Policy
	// TS is the stabilization instant as a wall-clock offset from
	// transport creation; messages sent at or after it bypass the policy
	// and go straight to the inner transport.
	TS time.Duration
	// Delta is δ, restated to the policy through each Transmission.
	Delta time.Duration
	// Seed drives the fault randomness. Fates are keyed on
	// (Seed, from, to, per-link sequence number), so the fate of the k-th
	// message on each link is a pure function of the seed — reproducible
	// even though goroutine interleaving varies between runs.
	Seed int64
	// OnDrop, when set, is called with the message type of every message
	// the policy drops (the scenario backend wires the trace collector's
	// drop accounting here; the inner transport never sees the message).
	OnDrop func(msgType string)
}

// PolicyTransport wraps another Transport with policy-driven fault
// injection: the declarative simnet policies (DropAll, PartitionUntilTS,
// Chaos, Duplicate, Reorder, ...) run against wall-clock time, so the same
// scenario regimes execute over in-memory channels or real TCP sockets.
// It is the live runtime's only fault path.
type PolicyTransport struct {
	inner Transport
	cfg   PolicyTransportConfig
	start time.Time
	// now returns the elapsed time since transport start; tests inject a
	// scripted clock here to pin fate sequences byte-for-byte.
	now func() time.Duration

	mu     sync.Mutex
	seq    map[connKey]uint64
	timers map[*time.Timer]struct{}
	closed bool
	wg     sync.WaitGroup
}

var _ Transport = (*PolicyTransport)(nil)

// NewPolicyTransport wraps inner with the policy fault model. The unstable
// period starts immediately: TS is measured from this call.
func NewPolicyTransport(inner Transport, cfg PolicyTransportConfig) *PolicyTransport {
	if cfg.Policy == nil {
		cfg.Policy = simnet.Synchronous{}
	}
	t := &PolicyTransport{
		inner:  inner,
		cfg:    cfg,
		start:  time.Now(),
		seq:    make(map[connKey]uint64),
		timers: make(map[*time.Timer]struct{}),
	}
	t.now = func() time.Duration { return time.Since(t.start) }
	return t
}

// mixSeed derives an independent per-message seed from the transport seed
// and the message's link coordinates (splitmix64 finalizer). Keying on the
// per-link sequence number instead of a shared rng stream keeps fates
// deterministic under real concurrency: cross-link interleaving cannot
// perturb another link's draws.
func mixSeed(seed int64, from, to consensus.ProcessID, seq uint64) int64 {
	z := uint64(seed) ^ (seq+1)*0x9e3779b97f4a7c15 ^ uint64(from)<<40 ^ uint64(to)<<20
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Register implements Transport.
func (t *PolicyTransport) Register(id consensus.ProcessID, h func(consensus.ProcessID, consensus.Message)) {
	t.inner.Register(id, h)
}

// Send implements Transport: post-TS messages pass straight through (the
// inner transport's native latency is the stable network); pre-TS messages
// get a policy fate translated into wall-clock delivery timers.
func (t *PolicyTransport) Send(from, to consensus.ProcessID, m consensus.Message) {
	elapsed := t.now()
	if elapsed >= t.cfg.TS {
		t.inner.Send(from, to, m)
		return
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	key := connKey{from, to}
	seq := t.seq[key]
	t.seq[key] = seq + 1
	t.mu.Unlock()

	rng := rand.New(rand.NewSource(mixSeed(t.cfg.Seed, from, to, seq)))
	fate := t.cfg.Policy.Fate(simnet.Transmission{
		From: from, To: to, Msg: m,
		SentAt: elapsed, TS: t.cfg.TS, Delta: t.cfg.Delta,
	}, rng)
	if fate.Drop {
		if t.cfg.OnDrop != nil {
			t.cfg.OnDrop(m.Type())
		}
		return
	}
	t.deliverAfter(fate.Delay, from, to, m)
	for _, d := range fate.Duplicates {
		t.deliverAfter(d, from, to, m)
	}
}

// deliverAfter hands the message to the inner transport after the given
// wall-clock delay, tracking the timer so Close can cancel it.
func (t *PolicyTransport) deliverAfter(d time.Duration, from, to consensus.ProcessID, m consensus.Message) {
	if d <= 0 {
		t.inner.Send(from, to, m)
		return
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.wg.Add(1)
	var timer *time.Timer
	timer = time.AfterFunc(d, func() {
		defer t.wg.Done()
		t.mu.Lock()
		delete(t.timers, timer)
		closed := t.closed
		t.mu.Unlock()
		if !closed {
			t.inner.Send(from, to, m)
		}
	})
	t.timers[timer] = struct{}{}
	t.mu.Unlock()
}

// Close implements Transport: pending deliveries are cancelled, in-flight
// callbacks drained, and the inner transport closed.
func (t *PolicyTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return t.inner.Close()
	}
	t.closed = true
	for timer := range t.timers {
		if timer.Stop() {
			// Callback will never run; release its waitgroup slot.
			t.wg.Done()
		}
		delete(t.timers, timer)
	}
	t.mu.Unlock()
	t.wg.Wait()
	return t.inner.Close()
}
