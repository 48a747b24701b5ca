package live

import (
	"cmp"
	"math/rand"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/trace"
)

// MemTransportConfig tunes the in-memory transport: the stable network,
// delivering every message within MaxDelay. Faults before TS come from
// wrapping it in a PolicyTransport.
type MemTransportConfig struct {
	// MaxDelay bounds per-message delivery delay (the live δ). Zero means
	// immediate delivery.
	MaxDelay time.Duration
	// Seed seeds the transport's delay draws. Zero means seed 1, so
	// zero-config transports are reproducible.
	Seed int64
	// Collector, when set and with histograms enabled, records per-type
	// delivery latency (the delay the transport itself imposes — the live
	// counterpart of the simulator's delivery histograms).
	Collector *trace.Collector
}

// MemTransport delivers messages between in-process nodes via their
// registered handlers after a random delay up to MaxDelay: at once on the
// sender's goroutine when the delay is zero, otherwise from its delay
// queue. It is safe for concurrent use.
type MemTransport struct {
	cfg MemTransportConfig

	// q.mu also guards rng and handlers.
	q        delayQueue
	rng      *rand.Rand
	handlers map[consensus.ProcessID]func(consensus.ProcessID, consensus.Message)
}

var _ Transport = (*MemTransport)(nil)

// NewMemTransport returns a transport with the given delay bound.
func NewMemTransport(cfg MemTransportConfig) *MemTransport {
	t := &MemTransport{
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cmp.Or(cfg.Seed, 1))),
		handlers: make(map[consensus.ProcessID]func(consensus.ProcessID, consensus.Message)),
	}
	t.q.init(func(d delivery) { d.h(d.from, d.msg) })
	return t
}

// Register implements Transport.
func (t *MemTransport) Register(id consensus.ProcessID, h func(consensus.ProcessID, consensus.Message)) {
	t.q.mu.Lock()
	defer t.q.mu.Unlock()
	t.handlers[id] = h
}

// Send implements Transport.
func (t *MemTransport) Send(from, to consensus.ProcessID, m consensus.Message) {
	q := &t.q
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	h := t.handlers[to]
	var delay time.Duration
	if t.cfg.MaxDelay > 0 {
		delay = time.Duration(t.rng.Int63n(int64(t.cfg.MaxDelay) + 1))
	}
	if h != nil && delay > 0 {
		q.push(delivery{at: q.now() + delay, from: from, msg: m, h: h})
	}
	q.mu.Unlock()

	if c := t.cfg.Collector; c != nil && c.HistogramsEnabled() {
		c.ObserveDelivery(c.Intern(m.Type()), delay)
	}
	if h != nil && delay == 0 {
		h(from, m)
	}
}

// Close implements Transport: it drops pending deliveries and waits for
// the one in progress. A second Close is a no-op.
func (t *MemTransport) Close() error {
	t.q.close()
	return nil
}
