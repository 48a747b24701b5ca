package live

import (
	"math/rand"
	"sync"
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
	// Seed seeds the transport's delay draws. Zero means a fixed
	// default seed — zero-config transports are reproducible. (Zero used
	// to fall back to time-based seeding, which made every scenario-driven
	// live report unrepeatable; callers wanting varied runs must now seed
	// explicitly.)
	Seed int64
	// Collector, when set and with histograms enabled, records per-type
	// delivery latency (the delay the transport itself imposes — the live
	// counterpart of the simulator's delivery histograms).
	Collector *trace.Collector
}

// defaultTransportSeed replaces a zero MemTransportConfig.Seed.
const defaultTransportSeed = 1

// MemTransport delivers messages between in-process nodes via their
// registered handlers after a random delay up to MaxDelay. It is safe for
// concurrent use.
type MemTransport struct {
	cfg MemTransportConfig

	mu       sync.Mutex
	rng      *rand.Rand
	handlers map[consensus.ProcessID]func(consensus.ProcessID, consensus.Message)
	closed   bool
	timers   map[*time.Timer]struct{}
	wg       sync.WaitGroup
}

var _ Transport = (*MemTransport)(nil)

// NewMemTransport returns a transport with the given delay bound.
func NewMemTransport(cfg MemTransportConfig) *MemTransport {
	seed := cfg.Seed
	if seed == 0 {
		seed = defaultTransportSeed
	}
	return &MemTransport{
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(seed)),
		handlers: make(map[consensus.ProcessID]func(consensus.ProcessID, consensus.Message)),
		timers:   make(map[*time.Timer]struct{}),
	}
}

// Register implements Transport.
func (t *MemTransport) Register(id consensus.ProcessID, h func(consensus.ProcessID, consensus.Message)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handlers[id] = h
}

// Send implements Transport.
func (t *MemTransport) Send(from, to consensus.ProcessID, m consensus.Message) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	h := t.handlers[to]
	var delay time.Duration
	if t.cfg.MaxDelay > 0 {
		delay = time.Duration(t.rng.Int63n(int64(t.cfg.MaxDelay) + 1))
	}
	t.mu.Unlock()

	if c := t.cfg.Collector; c != nil && c.HistogramsEnabled() {
		// The delay is already drawn, so observation cannot perturb the
		// transport's randomness stream.
		c.ObserveLatency(trace.HistDeliveryPrefix+m.Type(), delay)
	}
	if h == nil {
		return
	}
	if delay == 0 {
		h(from, m)
		return
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.wg.Add(1)
	var timer *time.Timer
	timer = time.AfterFunc(delay, func() {
		defer t.wg.Done()
		t.mu.Lock()
		delete(t.timers, timer)
		closed := t.closed
		t.mu.Unlock()
		if !closed {
			h(from, m)
		}
	})
	t.timers[timer] = struct{}{}
	t.mu.Unlock()
}

// Close implements Transport: it stops pending deliveries and waits for
// in-flight callbacks to finish.
func (t *MemTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
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
	return nil
}
