package simnet

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/clock"
	"repro/internal/core/consensus"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Node hosts one process inside a simulated network and implements
// consensus.Environment for it. The node owns the process's stable storage
// (which survives crashes) and its pending timers (which do not).
type Node struct {
	nw       *Network
	id       consensus.ProcessID
	factory  consensus.Factory
	proposal consensus.Value
	drift    clock.Drift

	proc  consensus.Process
	up    bool
	store *storage.MemStore
	spare consensus.Process // the last one discarded, if a consensus.Reuser

	// timers is a dense table indexed by TimerID for IDs below
	// denseTimerCap (protocols declare small integer constants, so their
	// timers all land here). The zero Event means "not armed". timerFns
	// caches one firing closure per dense timer ID, created on first arm
	// and reused by every re-arm — the re-arm churn of a heartbeat
	// protocol allocates nothing. IDs at or above the cap (the RSM
	// multiplexes per-slot timers into unbounded ID blocks) fall back to
	// the sparse map, which holds only live timers so memory stays
	// bounded by concurrency, not by the highest ID ever armed.
	timers   []sim.Event
	timerFns []func()
	timersXL map[consensus.TimerID]sim.Event

	decided     bool
	decision    consensus.Value
	decidedAt   time.Duration // global time of first decision
	startedAt   time.Duration // global time of most recent start/restart
	crashCount  int
	restartedAt time.Duration // global time of most recent post-crash start
	restarted   bool
}

func newNode(nw *Network, id consensus.ProcessID, factory consensus.Factory, proposal consensus.Value, drift clock.Drift) *Node {
	return &Node{
		nw:       nw,
		id:       id,
		factory:  factory,
		proposal: proposal,
		drift:    drift,
		store:    storage.NewMemStore(),
	}
}

// reset re-binds a pooled node (Arena reuse) to a new run: fresh network,
// factory, proposal, and clock; emptied stable storage; cleared decision
// bookkeeping; the last run's process kept as the spare. The dense timer
// table and its cached firing closures are kept — each closure captures
// only the node pointer and timer index, both stable across reuse, and
// reads the current proc/up state when it fires — so a reused cell's timer
// churn allocates nothing. The previous run's engine has been Reset, which
// invalidated every outstanding timer Event, so the stale handles left in
// the tables are inert; they are zeroed anyway to keep Pending() honest.
func (n *Node) reset(nw *Network, factory consensus.Factory, proposal consensus.Value, drift clock.Drift) {
	n.discard()
	n.store.Reset()
	clear(n.timers)
	clear(n.timersXL)
	*n = Node{nw: nw, id: n.id, factory: factory, proposal: proposal, drift: drift, store: n.store,
		spare: n.spare, timers: n.timers, timerFns: n.timerFns, timersXL: n.timersXL}
}

// start boots (or reboots) the process at the current virtual time.
func (n *Node) start() {
	if n.up {
		return
	}
	n.up = true
	if !n.decided {
		n.nw.undecidedUp++
	}
	n.startedAt = n.nw.eng.Now()
	if n.crashCount > 0 {
		n.restartedAt = n.startedAt
		n.restarted = true
		// Close the crash window opened by crash() (no-op unless spans on).
		n.nw.collector.Span(n.startedAt, int(n.id), trace.SpanDown, false, int64(n.crashCount))
	}
	n.proc = n.factory(n.id, n.nw.cfg.N, n.proposal)
	if r, ok := n.proc.(consensus.Reuser); ok && n.spare != nil {
		r.Reuse(n.spare)
	}
	n.spare = nil
	n.proc.Init(n)
}

// discard drops the process, keeping a consensus.Reuser as the spare.
func (n *Node) discard() {
	if _, ok := n.proc.(consensus.Reuser); ok {
		n.spare = n.proc
	}
	n.proc = nil
}

// crash stops the process: volatile state (the Process object and all
// pending timers) is discarded; stable storage is kept.
func (n *Node) crash() {
	if !n.up {
		return
	}
	n.up = false
	if !n.decided {
		n.nw.undecidedUp--
	}
	n.discard()
	n.crashCount++
	n.nw.collector.Span(n.nw.eng.Now(), int(n.id), trace.SpanDown, true, int64(n.crashCount))
	for i := range n.timers {
		n.timers[i].Cancel()
		n.timers[i] = sim.Event{}
	}
	for id, ev := range n.timersXL {
		ev.Cancel()
		delete(n.timersXL, id)
	}
}

// deliver hands a message to the process if it is up; messages arriving at
// a crashed process are lost (omission model). typeID is the message type
// interned in the run's collector, carried by the delivery event so
// accounting needs no string handling.
func (n *Node) deliver(from consensus.ProcessID, m consensus.Message, typeID int) {
	if !n.up {
		n.nw.collector.DroppedID(typeID)
		return
	}
	n.nw.collector.DeliveredID(typeID)
	n.proc.HandleMessage(from, m)
	n.nw.notifyDelivered(from, n.id, m)
}

// --- consensus.Environment implementation ---

var _ consensus.Environment = (*Node)(nil)

// ID implements consensus.Environment.
func (n *Node) ID() consensus.ProcessID { return n.id }

// N implements consensus.Environment.
func (n *Node) N() int { return n.nw.cfg.N }

// Now implements consensus.Environment: the local (possibly drifting) clock.
func (n *Node) Now() time.Duration { return n.drift.Local(n.nw.eng.Now()) }

// GlobalNow returns the global virtual time (for tests and metrics; not part
// of the Environment interface, so protocols cannot cheat with it).
func (n *Node) GlobalNow() time.Duration { return n.nw.eng.Now() }

// Send implements consensus.Environment.
func (n *Node) Send(to consensus.ProcessID, m consensus.Message) {
	n.nw.route(n.id, to, m)
}

// denseTimerCap bounds the dense timer table: every protocol constant is a
// single-digit ID, while the RSM's slot-multiplexed IDs grow without bound
// and must not size a per-node array.
const denseTimerCap = 32

// SetTimer implements consensus.Environment. The duration counts on the
// process's local clock; the node converts it to global time. Re-arming an
// already-pending timer replaces it.
func (n *Node) SetTimer(id consensus.TimerID, d time.Duration) {
	i := int(id)
	if i < 0 {
		panic(fmt.Sprintf("simnet: negative timer ID %d", id))
	}
	global := n.drift.GlobalElapsed(d)
	if i >= denseTimerCap {
		// Sparse fallback: one closure per arm (like the pre-overhaul
		// map), entries deleted on fire/cancel so only live timers are
		// held.
		if prev, ok := n.timersXL[id]; ok {
			prev.Cancel()
		}
		if n.timersXL == nil {
			n.timersXL = make(map[consensus.TimerID]sim.Event)
		}
		n.timersXL[id] = n.nw.eng.After(global, func() {
			delete(n.timersXL, id)
			if n.up {
				n.proc.HandleTimer(id)
			}
		})
		return
	}
	for i >= len(n.timers) {
		n.timers = append(n.timers, sim.Event{})
		n.timerFns = append(n.timerFns, nil)
	}
	n.timers[i].Cancel() // no-op unless armed
	if n.timerFns[i] == nil {
		// Created once per (node, timer ID) and cached; re-arms reuse it,
		// so the steady state allocates nothing.
		n.timerFns[i] = func() {
			n.timers[i] = sim.Event{}
			if n.up {
				n.proc.HandleTimer(id)
			}
		}
	}
	n.timers[i] = n.nw.eng.After(global, n.timerFns[i])
}

// CancelTimer implements consensus.Environment.
func (n *Node) CancelTimer(id consensus.TimerID) {
	i := int(id)
	if i >= denseTimerCap {
		if ev, ok := n.timersXL[id]; ok {
			ev.Cancel()
			delete(n.timersXL, id)
		}
		return
	}
	if i >= 0 && i < len(n.timers) {
		n.timers[i].Cancel()
		n.timers[i] = sim.Event{}
	}
}

// Store implements consensus.Environment.
func (n *Node) Store() storage.Store { return n.store }

// Rand implements consensus.Environment.
func (n *Node) Rand() *rand.Rand { return n.nw.eng.Rand() }

// Decide implements consensus.Environment.
func (n *Node) Decide(v consensus.Value) {
	now := n.nw.eng.Now()
	// The checker flags disagreement and re-decision with a different
	// value; a repeated identical Decide (restart) is idempotent.
	if n.nw.checker.RecordDecision(consensus.Decision{Proc: n.id, Value: v, At: now}) != nil {
		n.nw.violated = true
	}
	if !n.decided {
		n.decided = true
		if n.up {
			n.nw.undecidedUp--
		}
		n.decision = v
		n.decidedAt = now
		n.nw.collector.Emit(now, int(n.id), "decide", 1)
		if n.nw.collector.HistogramsEnabled() {
			// The paper's headline metric, per process: global decision
			// time minus TS, clamped like Result.LatencyAfterTS.
			lat := now - n.nw.cfg.TS
			if lat < 0 {
				lat = 0
			}
			n.nw.collector.ObserveLatency(trace.HistDecideLatency, lat)
		}
	}
}

// Emit implements consensus.Environment.
func (n *Node) Emit(kind string, value int64) {
	n.nw.collector.Emit(n.nw.eng.Now(), int(n.id), kind, value)
}

// Span implements consensus.SpanSink: protocol phase spans are stamped with
// global virtual time (spans from different processes must share one
// timeline; local clocks drift).
func (n *Node) Span(kind string, begin bool, value int64) {
	n.nw.collector.Span(n.nw.eng.Now(), int(n.id), kind, begin, value)
}

// SpansEnabled lets layered environments (the RSM slot env) skip span
// bookkeeping when recording is off.
func (n *Node) SpansEnabled() bool { return n.nw.collector.SpansEnabled() }

// ObserveDuration implements consensus.DurationObserver.
func (n *Node) ObserveDuration(name string, d time.Duration) {
	n.nw.collector.ObserveLatency(name, d)
}

// ObserveValue implements consensus.ValueObserver.
func (n *Node) ObserveValue(name string, v int64) {
	n.nw.collector.ObserveValue(name, v)
}

// Logf implements consensus.Environment: the simulator keeps no log.
func (n *Node) Logf(string, ...any) {}

// --- inspection helpers for tests and the harness ---

// Decided reports whether the process has decided, and the value.
func (n *Node) Decided() (consensus.Value, bool) { return n.decision, n.decided }

// DecidedAtGlobal returns the global time of the first decision.
func (n *Node) DecidedAtGlobal() (time.Duration, bool) { return n.decidedAt, n.decided }

// StartedAtGlobal returns the global time of the most recent (re)start.
func (n *Node) StartedAtGlobal() time.Duration { return n.startedAt }

// RestartRecovery returns the gap between the node's most recent post-crash
// restart and its decision. It reports false for nodes that never restarted
// or whose decision predates the restart (they recovered instantly from
// stable storage or had nothing to recover).
func (n *Node) RestartRecovery() (time.Duration, bool) {
	if !n.restarted || !n.decided || n.decidedAt < n.restartedAt {
		return 0, false
	}
	return n.decidedAt - n.restartedAt, true
}

// CrashCount returns how many times the process has crashed.
func (n *Node) CrashCount() int { return n.crashCount }

// Up reports whether the process is currently running.
func (n *Node) Up() bool { return n.up }

// Process returns the hosted protocol instance (nil while crashed). Tests
// use this to inspect protocol-level state; production code must not.
func (n *Node) Process() consensus.Process { return n.proc }
