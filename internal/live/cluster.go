// Package live runs the same consensus protocols natively: one goroutine
// per process, real clocks, real timers, and pluggable transports — an
// in-memory channel transport and a TCP transport. This is the "simulate rounds with goroutines" substrate:
// the scenario engine's live backends and the integration tests exercise
// protocol code identical to what the deterministic simulator verifies.
//
// A node's loop turns like this: fire the timers that are due; swap the
// inbox (a slice under the node's one mutex) for an empty one; handle that
// batch in arrival order, looking for a crash between events; when a swap
// found nothing, sleep until a message, the earliest timer or a stop. So a
// delivered message costs one uncontended lock, one append and at most one
// wake-up. Node's comment says who may call what from where, and what a
// crash keeps and drops.
//
// The TCP transport keeps the network off the event loops: a Send enqueues
// on a per-(from,to) link whose writer goroutine dials, encodes and writes,
// flushing whenever its queue runs empty; a full queue blocks the sender
// (backpressure, never silent loss), and a send to oneself is a local call.
// Frames are length-prefixed binary, each message in the codec its package
// registered with the consensus wire registry; a type without one cannot be
// sent. See tcp.go for the layout and the failure rules.
//
// The eventually-synchronous model maps onto real time: a PolicyTransport
// around either transport applies a simnet policy to every message sent
// before TS, and after TS the inner transport delivers within δ.
package live

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/trace"
)

// Transport moves messages between processes. Implementations must be safe
// for concurrent use; delivery must invoke the handler registered for the
// destination (on any goroutine — nodes serialize internally).
type Transport interface {
	// Register installs the delivery handler for a process. It must be
	// called for every process before Send is used. The handler runs on the
	// transport's delivery goroutine, with later deliveries waiting behind
	// it, so it must not block; Node.enqueueMessage never does.
	Register(id consensus.ProcessID, h func(from consensus.ProcessID, m consensus.Message))
	// Send transmits m from one process to another.
	Send(from, to consensus.ProcessID, m consensus.Message)
	// Close releases transport resources.
	Close() error
}

// Config describes a live cluster.
type Config struct {
	// N is the number of processes.
	N int
	// Delta is δ, handed to protocol configurations; with the memory
	// transport it also bounds post-stabilization delivery delay.
	Delta time.Duration
	// TS is the stabilization instant as a wall-clock offset from cluster
	// start. It is an observability anchor only (decision-latency
	// histograms measure against it, matching the simulator's headline
	// metric); a PolicyTransport's own TS governs actual fault injection.
	TS time.Duration
	// Transport defaults to a loss-free memory transport.
	Transport Transport
	// Collector defaults to a fresh collector.
	Collector *trace.Collector
	// StateDir, when set, backs each node's stable storage with gob files
	// under StateDir/p<ID> instead of memory, so state survives even OS
	// process restarts. Empty means in-memory stable storage (which still
	// survives Crash/Restart within this Cluster).
	StateDir string
	// Seed, when nonzero, seeds each node's protocol randomness
	// deterministically (the scenario live backend derives it from the
	// spec's seed matrix). Zero keeps time-based node seeds.
	Seed int64
}

// Cluster is a set of live processes.
type Cluster struct {
	cfg       Config
	factory   consensus.Factory
	proposals []consensus.Value
	transport Transport
	collector *trace.Collector
	checker   *consensus.SafetyChecker
	nodes     []*Node

	mu        sync.Mutex
	started   bool
	startedAt time.Time
	// pending arms the CrashAt/RestartAt faults scheduled before Start;
	// timers are the armed ones, which Stop cancels.
	pending []func()
	timers  []*time.Timer

	// life is the shutdown barrier: Crash and Restart hold it while they
	// work and do nothing once Stop has set stopped under it, so a caller's
	// fault timer that fires late cannot boot a node into a stopped cluster.
	// It is not mu: node goroutines take mu in sinceStart, and stopping a
	// node joins its goroutine.
	life    sync.Mutex
	stopped bool
}

// NewCluster builds a cluster; processes are created but not started.
func NewCluster(cfg Config, factory consensus.Factory, proposals []consensus.Value) (*Cluster, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("live: N must be ≥ 1, got %d", cfg.N)
	}
	if cfg.Delta <= 0 {
		return nil, fmt.Errorf("live: Delta must be positive, got %v", cfg.Delta)
	}
	if len(proposals) != cfg.N {
		return nil, fmt.Errorf("live: %d proposals for %d processes", len(proposals), cfg.N)
	}
	if cfg.Transport == nil {
		cfg.Transport = NewMemTransport(MemTransportConfig{MaxDelay: cfg.Delta})
	}
	if cfg.Collector == nil {
		cfg.Collector = trace.NewCollector()
	}
	c := &Cluster{
		cfg:       cfg,
		factory:   factory,
		proposals: proposals,
		transport: cfg.Transport,
		collector: cfg.Collector,
		checker:   consensus.NewSafetyChecker(cfg.N),
	}
	for i := 0; i < cfg.N; i++ {
		id := consensus.ProcessID(i)
		c.checker.RecordProposal(id, proposals[i])
		node, err := newLiveNode(c, id)
		if err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, node)
		c.transport.Register(id, node.enqueueMessage)
	}
	return c, nil
}

// Start boots every process.
func (c *Cluster) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.started = true
	c.startedAt = time.Now()
	for _, n := range c.nodes {
		n.start()
	}
	for _, arm := range c.pending {
		arm()
	}
	c.pending = nil
}

// CrashAt crashes process id at offset at from Start. A fault scheduled
// before Start waits for it, one whose instant has already passed fires at
// once, and Stop cancels every one that has not fired.
func (c *Cluster) CrashAt(id consensus.ProcessID, at time.Duration) {
	c.faultAt(at, func() { c.Crash(id) })
}

// RestartAt restarts process id at offset at from Start, on CrashAt's terms.
func (c *Cluster) RestartAt(id consensus.ProcessID, at time.Duration) {
	c.faultAt(at, func() { c.Restart(id) })
}

func (c *Cluster) faultAt(at time.Duration, fire func()) {
	c.life.Lock()
	defer c.life.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	arm := func() { c.timers = append(c.timers, time.AfterFunc(at-time.Since(c.startedAt), fire)) }
	switch {
	case c.stopped: // nothing is armed after Stop
	case c.started:
		arm()
	default:
		c.pending = append(c.pending, arm)
	}
}

// sinceStart returns the wall-clock offset from cluster start — the live
// runtime's run timeline (0 before Start).
func (c *Cluster) sinceStart() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.started {
		return 0
	}
	return time.Since(c.startedAt)
}

// Stop gracefully shuts down all processes and the transport, waiting for
// every goroutine to exit. It cancels the CrashAt/RestartAt faults that have
// not fired and waits out a Crash or Restart in progress; later ones are
// no-ops.
func (c *Cluster) Stop() error {
	c.life.Lock()
	c.stopped = true
	c.mu.Lock()
	for _, t := range c.timers {
		t.Stop()
	}
	c.pending, c.timers = nil, nil
	c.mu.Unlock()
	c.life.Unlock()
	for _, n := range c.nodes {
		n.stop()
	}
	return c.transport.Close()
}

// Checker returns the shared safety checker.
func (c *Cluster) Checker() *consensus.SafetyChecker { return c.checker }

// Collector returns the shared trace collector.
func (c *Cluster) Collector() *trace.Collector { return c.collector }

// Node returns the node hosting a process.
func (c *Cluster) Node(id consensus.ProcessID) *Node { return c.nodes[id] }

// Crash stops one process abruptly (volatile state and timers lost; stable
// storage kept).
func (c *Cluster) Crash(id consensus.ProcessID) { c.fault(id, true, (*Node).stop) }

// Restart boots a crashed process again from its stable storage.
func (c *Cluster) Restart(id consensus.ProcessID) { c.fault(id, false, (*Node).start) }

// fault takes one process down or brings it back, unless Stop has begun.
func (c *Cluster) fault(id consensus.ProcessID, down bool, apply func(*Node)) {
	c.life.Lock()
	defer c.life.Unlock()
	if c.stopped {
		return
	}
	c.collector.Span(c.sinceStart(), int(id), trace.SpanDown, down, 1)
	apply(c.nodes[id])
}

// AllIDs returns every process ID.
func (c *Cluster) AllIDs() []consensus.ProcessID {
	ids := make([]consensus.ProcessID, c.cfg.N)
	for i := range ids {
		ids[i] = consensus.ProcessID(i)
	}
	return ids
}

// WaitAllDecided blocks until every process has decided or the timeout
// elapses. It returns an error on timeout or safety violation.
func (c *Cluster) WaitAllDecided(timeout time.Duration) error {
	return c.WaitDecidedAmong(c.AllIDs(), timeout)
}

// WaitDecidedAmong blocks until every listed process has decided or the
// timeout elapses — the wait the scenario live backend uses, where
// processes crashed for good are excluded. It returns an error on timeout
// or safety violation.
func (c *Cluster) WaitDecidedAmong(ids []consensus.ProcessID, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if err := c.checker.Violation(); err != nil {
			return fmt.Errorf("live: safety violation: %w", err)
		}
		if c.checker.AllDecided(ids) {
			return nil
		}
		if time.Now().After(deadline) {
			decided := 0
			for _, id := range ids {
				if _, ok := c.checker.DecisionOf(id); ok {
					decided++
				}
			}
			return fmt.Errorf("live: %d/%d processes decided within %v",
				decided, len(ids), timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// WaitDecided blocks until one specific process decides.
func (c *Cluster) WaitDecided(id consensus.ProcessID, timeout time.Duration) (consensus.Value, error) {
	deadline := time.Now().Add(timeout)
	for {
		if d, ok := c.checker.DecisionOf(id); ok {
			return d.Value, nil
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("live: process %d undecided after %v", id, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}
