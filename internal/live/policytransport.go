package live

import (
	"math/rand"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// PolicyTransportConfig maps a simnet pre-stabilization policy onto
// wall-clock time.
type PolicyTransportConfig struct {
	// Policy rules every message sent before TS (nil means Synchronous).
	// Fates are translated verbatim: Drop loses the message, Delay and
	// Duplicates become wall-clock delays from the send instant.
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
	// Collector, when set, counts every message the policy drops (the
	// inner transport never sees it).
	Collector *trace.Collector
}

// PolicyTransport wraps another Transport with policy-driven fault
// injection: the declarative simnet policies (DropAll, PartitionUntilTS,
// Chaos, Duplicate, Reorder, ...) run against wall-clock time, so the same
// scenario regimes execute over in-memory channels or real TCP sockets.
// It is the live runtime's only fault path.
type PolicyTransport struct {
	inner Transport
	cfg   PolicyTransportConfig
	// now returns the elapsed time since transport start; tests inject a
	// scripted clock here to pin fate sequences byte-for-byte.
	now func() time.Duration

	// q.mu also guards seq and rng, which each pre-TS Send re-seeds.
	q   delayQueue
	seq map[connKey]uint64
	rng *rand.Rand
}

var _ Transport = (*PolicyTransport)(nil)

// NewPolicyTransport wraps inner with the policy fault model. The unstable
// period starts immediately: TS is measured from this call.
func NewPolicyTransport(inner Transport, cfg PolicyTransportConfig) *PolicyTransport {
	if cfg.Policy == nil {
		cfg.Policy = simnet.Synchronous{}
	}
	t := &PolicyTransport{
		inner: inner,
		cfg:   cfg,
		seq:   make(map[connKey]uint64),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
	t.q.init(func(d delivery) { t.inner.Send(d.from, d.to, d.msg) })
	t.now = t.q.now
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
// get a policy fate, and each copy it keeps goes through the delay queue.
func (t *PolicyTransport) Send(from, to consensus.ProcessID, m consensus.Message) {
	elapsed := t.now()
	if elapsed >= t.cfg.TS {
		t.inner.Send(from, to, m)
		return
	}
	q := &t.q
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	key := connKey{from, to}
	seq := t.seq[key]
	t.seq[key] = seq + 1
	t.rng.Seed(mixSeed(t.cfg.Seed, from, to, seq))
	fate := t.cfg.Policy.Fate(simnet.Transmission{
		From: from, To: to, Msg: m,
		SentAt: elapsed, TS: t.cfg.TS, Delta: t.cfg.Delta,
	}, t.rng)
	if !fate.Drop {
		now := q.now()
		q.push(delivery{at: now + fate.Delay, from: from, to: to, msg: m})
		for _, d := range fate.Duplicates {
			q.push(delivery{at: now + d, from: from, to: to, msg: m})
		}
	}
	q.mu.Unlock()
	if c := t.cfg.Collector; fate.Drop && c != nil {
		c.DroppedID(c.Intern(m.Type()))
	}
}

// Close implements Transport: pending deliveries are dropped, the one in
// progress waited for, and the inner transport closed.
func (t *PolicyTransport) Close() error {
	t.q.close()
	return t.inner.Close()
}
