// Package simnet realizes the paper's eventually-synchronous system model on
// top of the deterministic simulator (internal/sim):
//
//   - There is a global stabilization time TS. Messages sent at or after TS
//     between nonfaulty processes are delivered within δ (δ includes
//     processing time; handlers execute instantaneously at delivery).
//   - Messages sent before TS are handed to a pre-stability Policy, which
//     may drop them or delay them arbitrarily — including past TS. These
//     late deliveries are exactly the "obsolete messages" that make the
//     paper's problem hard.
//   - Processes may crash and restart. A crash discards volatile state and
//     cancels timers; stable storage survives. A restarted process resumes
//     via its protocol factory reading the store.
//   - Each process has a local clock with a bounded rate error ρ; protocol
//     timers count local time.
package simnet

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/clock"
	"repro/internal/core/consensus"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config describes one simulated cluster.
type Config struct {
	// N is the number of processes (numbered 0..N−1).
	N int
	// Delta is δ, the post-stabilization message-delivery bound.
	Delta time.Duration
	// TS is the global stabilization time.
	TS time.Duration
	// MinDelay is the lower edge of post-TS delivery latency. Defaults to
	// Delta/10 if zero; must be ≤ Delta.
	MinDelay time.Duration
	// Policy governs messages sent before TS. Nil means Synchronous (the
	// network behaves as if stable from time 0 — only meaningful with
	// TS=0 or as a best-case baseline).
	Policy Policy
	// Rho is the bound on local clock rate error after TS.
	Rho float64
	// Drift optionally supplies an explicit clock per process; when nil,
	// clocks get deterministic rates spread across [1−Rho, 1+Rho].
	Drift func(id consensus.ProcessID) clock.Drift
	// Collector receives trace events; one is created when nil.
	Collector *trace.Collector
	// Arena, when non-nil, supplies pooled node storage reused across runs
	// (see Arena). The engine passed to New must then be the arena's own
	// (Arena.Engine), so node timer state and event storage reset together.
	Arena *Arena
}

func (c *Config) validate() error {
	if c.N < 1 {
		return fmt.Errorf("simnet: N must be ≥ 1, got %d", c.N)
	}
	if c.Delta <= 0 {
		return fmt.Errorf("simnet: Delta must be positive, got %v", c.Delta)
	}
	if c.TS < 0 {
		return fmt.Errorf("simnet: TS must be ≥ 0, got %v", c.TS)
	}
	if c.MinDelay < 0 || c.MinDelay > c.Delta {
		return fmt.Errorf("simnet: MinDelay %v outside [0, Delta=%v]", c.MinDelay, c.Delta)
	}
	if !(c.Rho >= 0 && c.Rho < 1) { // NaN fails every comparison, so it fails this one
		return fmt.Errorf("simnet: Rho must be in [0,1), got %v", c.Rho)
	}
	return nil
}

// Network is a simulated cluster of processes.
type Network struct {
	eng       *sim.Engine
	cfg       Config
	nodes     []*Node
	collector *trace.Collector
	checker   *consensus.SafetyChecker
	observers []DeliveryObserver

	// pendingRestarts counts scheduled-but-not-yet-executed restarts, so
	// run loops can refuse to stop while a process is still due back.
	pendingRestarts int

	// undecidedUp counts the processes that are up and have not decided,
	// and violated records that the checker refused a decision: together
	// they are the run loops' per-event stop condition (Settled) without a
	// scan of the nodes or the checker's mutex. Nodes maintain the count in
	// start, crash and their first Decide — a decision is durable, so a
	// decided process that crashes and restarts never counts again.
	undecidedUp int
	violated    bool

	// Interned histogram IDs for the route() hot path, populated lazily
	// only when the collector has histograms enabled. deliveryHist is
	// indexed by interned message-type ID and stores histID+1 (0 =
	// unassigned); queueHist likewise stores its histID+1.
	deliveryHist []int
	queueHist    int

	// Scratch buffers returned by UpIDs/AllIDs (see their docs).
	upScratch  []consensus.ProcessID
	allScratch []consensus.ProcessID
}

// DeliveryObserver is notified after every successful message delivery.
// Adaptive adversaries use this to time their injections against protocol
// progress (modeling a worst-case scheduler).
type DeliveryObserver func(at time.Duration, from, to consensus.ProcessID, m consensus.Message)

// New builds a network on the engine. Processes are created but not started;
// call Start (or StartExcept) to bring them up at the current virtual time.
func New(eng *sim.Engine, cfg Config, factory consensus.Factory, proposals []consensus.Value) (*Network, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(proposals) != cfg.N {
		return nil, fmt.Errorf("simnet: %d proposals for %d processes", len(proposals), cfg.N)
	}
	if cfg.MinDelay == 0 {
		cfg.MinDelay = cfg.Delta / 10
	}
	if cfg.Policy == nil {
		cfg.Policy = Synchronous{}
	}
	if cfg.Collector == nil {
		cfg.Collector = trace.NewCollector()
	}

	nw := &Network{
		eng:       eng,
		cfg:       cfg,
		collector: cfg.Collector,
		checker:   consensus.NewSafetyChecker(cfg.N),
		nodes:     make([]*Node, 0, cfg.N),
	}
	// All message traffic flows through the engine's delivery sink: one
	// closure per network instead of one per message in flight. The sink's
	// aux value is the interned message-type ID, so delivery accounting
	// never re-hashes the type string.
	eng.SetDeliverySink(func(from, to int32, aux int64, payload any) {
		nw.nodes[to].deliver(consensus.ProcessID(from), payload.(consensus.Message), int(aux))
	})
	for i := 0; i < cfg.N; i++ {
		id := consensus.ProcessID(i)
		d := nw.driftFor(id)
		if err := d.Validate(); err != nil {
			return nil, fmt.Errorf("simnet: process %d: %w", i, err)
		}
		var node *Node
		if cfg.Arena != nil {
			node = cfg.Arena.node(nw, id, factory, proposals[i], d)
		} else {
			node = newNode(nw, id, factory, proposals[i], d)
		}
		nw.nodes = append(nw.nodes, node)
		nw.checker.RecordProposal(id, proposals[i])
	}
	return nw, nil
}

// driftFor assigns clock rates deterministically across [1−ρ, 1+ρ] so that
// different processes genuinely disagree about elapsed time.
func (nw *Network) driftFor(id consensus.ProcessID) clock.Drift {
	if nw.cfg.Drift != nil {
		return nw.cfg.Drift(id)
	}
	if nw.cfg.Rho == 0 || nw.cfg.N == 1 {
		return clock.Perfect()
	}
	frac := float64(id) / float64(nw.cfg.N-1) // 0..1 across processes
	rate := 1 - nw.cfg.Rho + 2*nw.cfg.Rho*frac
	return clock.WithRate(rate)
}

// Engine returns the underlying simulation engine.
func (nw *Network) Engine() *sim.Engine { return nw.eng }

// Collector returns the run's trace collector.
func (nw *Network) Collector() *trace.Collector { return nw.collector }

// Checker returns the run's safety checker.
func (nw *Network) Checker() *consensus.SafetyChecker { return nw.checker }

// Config returns the network's configuration (with defaults applied).
func (nw *Network) Config() Config { return nw.cfg }

// Node returns the node for a process.
func (nw *Network) Node(id consensus.ProcessID) *Node { return nw.nodes[id] }

// Start brings every process up at the current virtual time.
func (nw *Network) Start() {
	for _, n := range nw.nodes {
		n.start()
	}
}

// StartExcept brings up every process not listed in down; the listed ones
// stay crashed until explicitly restarted (they model processes that failed
// before TS and may or may not ever come back).
func (nw *Network) StartExcept(down ...consensus.ProcessID) {
	excluded := make(map[consensus.ProcessID]bool, len(down))
	for _, id := range down {
		excluded[id] = true
	}
	for _, n := range nw.nodes {
		if !excluded[n.id] {
			n.start()
		}
	}
}

// CrashAt schedules a crash of process id at virtual time at.
func (nw *Network) CrashAt(id consensus.ProcessID, at time.Duration) {
	nw.eng.Schedule(at, func() { nw.nodes[id].crash() })
}

// RestartAt schedules a restart of process id at virtual time at.
func (nw *Network) RestartAt(id consensus.ProcessID, at time.Duration) {
	nw.pendingRestarts++
	nw.eng.Schedule(at, func() {
		nw.pendingRestarts--
		nw.nodes[id].start()
	})
}

// RestartsPending returns the number of scheduled restarts that have not
// executed yet.
func (nw *Network) RestartsPending() int { return nw.pendingRestarts }

// Inject schedules delivery of a message to a process at an absolute virtual
// time, bypassing the delay model. Adversaries use this to plant obsolete
// messages ("sent" by failed processes before TS) and oracles use it for
// out-of-band announcements.
func (nw *Network) Inject(at time.Duration, from, to consensus.ProcessID, m consensus.Message) {
	nw.eng.ScheduleDelivery(at, int32(from), int32(to), int64(nw.collector.Intern(m.Type())), m)
}

// Observe registers a delivery observer.
func (nw *Network) Observe(fn DeliveryObserver) {
	nw.observers = append(nw.observers, fn)
}

// notifyDelivered runs the registered observers.
func (nw *Network) notifyDelivered(from, to consensus.ProcessID, m consensus.Message) {
	for _, fn := range nw.observers {
		fn(nw.eng.Now(), from, to, m)
	}
}

// Up reports whether the process is currently running.
func (nw *Network) Up(id consensus.ProcessID) bool { return nw.nodes[id].up }

// UpIDs returns the IDs of all currently-running processes. The slice is a
// scratch buffer owned by the network, valid until the next UpIDs call;
// callers that retain it must copy. (Run loops do not scan it to decide
// when to stop: that is Settled.)
func (nw *Network) UpIDs() []consensus.ProcessID {
	ids := slices.Grow(nw.upScratch[:0], len(nw.nodes))
	for _, n := range nw.nodes {
		if n.up {
			ids = append(ids, n.id)
		}
	}
	nw.upScratch = ids
	return ids
}

// AllIDs returns every process ID. Like UpIDs, the slice is a network-owned
// scratch buffer, valid until the next AllIDs call.
func (nw *Network) AllIDs() []consensus.ProcessID {
	ids := slices.Grow(nw.allScratch[:0], nw.cfg.N)
	for i := 0; i < nw.cfg.N; i++ {
		ids = append(ids, consensus.ProcessID(i))
	}
	nw.allScratch = ids
	return ids
}

// route computes and schedules delivery of a protocol message. The hot
// path is allocation-free: the delivery is a pooled sink event carrying
// (from, to, interned type ID, message) — no per-message closure — and the
// counters are interned-ID increments, not locked map writes.
//
//repro:hotpath
func (nw *Network) route(from, to consensus.ProcessID, m consensus.Message) {
	typeID := nw.collector.Intern(m.Type())
	nw.collector.SentID(typeID)
	now := nw.eng.Now()

	var delay time.Duration
	if now >= nw.cfg.TS {
		// Stable: deliver within δ.
		span := nw.cfg.Delta - nw.cfg.MinDelay
		delay = nw.cfg.MinDelay + time.Duration(nw.eng.Rand().Int63n(int64(span)+1))
	} else {
		fate := nw.cfg.Policy.Fate(Transmission{From: from, To: to, Msg: m, SentAt: now, TS: nw.cfg.TS, Delta: nw.cfg.Delta}, nw.eng.Rand())
		if fate.Drop {
			nw.collector.DroppedID(typeID)
			return
		}
		delay = fate.Delay
		if delay < 0 {
			delay = 0
		}
		// Network-induced re-deliveries (Duplicate policy). They are not
		// protocol sends, so only the delivery is accounted.
		for _, d := range fate.Duplicates {
			if d < 0 {
				d = 0
			}
			if nw.collector.HistogramsEnabled() {
				nw.observeDelivery(typeID, d)
			}
			nw.eng.ScheduleDelivery(now+d, int32(from), int32(to), int64(typeID), m)
		}
	}

	if nw.collector.HistogramsEnabled() {
		// The delay is already computed for scheduling, so observing it
		// consumes no randomness and schedules nothing: enabling
		// histograms leaves the delivery schedule byte-identical.
		nw.observeDelivery(typeID, delay)
		nw.observeQueueDepth()
	}
	nw.eng.ScheduleDelivery(now+delay, int32(from), int32(to), int64(typeID), m)
}

// observeDelivery records a delivery latency into the per-message-type
// histogram, mapping the interned message-type ID to an interned histogram
// ID so the steady state is two array reads and an increment.
//
//repro:hotpath
func (nw *Network) observeDelivery(typeID int, delay time.Duration) {
	for typeID >= len(nw.deliveryHist) {
		nw.deliveryHist = append(nw.deliveryHist, 0)
	}
	id := nw.deliveryHist[typeID]
	if id == 0 {
		//repro:allow hotlint built once per message type, then cached in deliveryHist
		id = nw.collector.InternHist(trace.HistDeliveryPrefix+nw.collector.TypeName(typeID), trace.UnitNanos) + 1
		nw.deliveryHist[typeID] = id
	}
	nw.collector.ObserveHistID(id-1, int64(delay))
}

// observeQueueDepth samples the engine's pending-event count — the
// simulator's analogue of transport queue depth.
//
//repro:hotpath
func (nw *Network) observeQueueDepth() {
	if nw.queueHist == 0 {
		nw.queueHist = nw.collector.InternHist(trace.HistQueueDepth, trace.UnitCount) + 1
	}
	nw.collector.ObserveHistID(nw.queueHist-1, int64(nw.eng.Pending()))
}

// Settled reports whether a run has nothing left to wait for among the
// processes currently up: every one of them has decided, or the safety
// checker has recorded a violation (which ends a run at once). O(1) — run
// loops ask after every event.
//
//repro:hotpath
func (nw *Network) Settled() bool {
	settled := nw.undecidedUp == 0 || nw.violated
	if testHookSettled != nil {
		testHookSettled(nw, settled)
	}
	return settled
}

// testHookSettled, when a test sets it, sees every answer Settled gives.
var testHookSettled func(nw *Network, settled bool)

// RunUntilAllDecided runs the simulation until every currently-up process
// has decided, or the horizon passes. It reports whether all up processes
// decided and returns any safety violation.
func (nw *Network) RunUntilAllDecided(horizon time.Duration) (bool, error) {
	ok := nw.eng.RunUntil(nw.Settled, horizon)
	if err := nw.checker.Violation(); err != nil {
		return false, err
	}
	return ok, nil
}
