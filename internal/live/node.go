package live

import (
	"fmt"
	"log"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/storage"
	"repro/internal/trace"
)

// arrival is one message waiting in a node's inbox.
type arrival struct {
	from consensus.ProcessID
	msg  consensus.Message
	// enqueuedAt is the node clock at enqueue, so the loop can observe the
	// inbox wait (zero when histograms are off).
	enqueuedAt time.Duration
}

// inboxBound is how many messages may wait in an inbox. It is deliberately
// deep: N processes broadcasting at once send to each other from their own
// event loops, and none of them may block on a full inbox. Overflow is
// dropped, which the omission fault model explicitly permits.
const inboxBound = 4096

// Node hosts one live process: a goroutine owning the consensus.Process,
// fed by an inbox. All protocol code runs on that single goroutine, so the
// Process needs no locking — the same execution model as the simulator.
//
// One turn of the loop (run):
//
//	fire every timer that is due, deadline order, ties in arming order
//	swap the inbox with the spare slice under mu
//	handle the batch in arrival order, looking for a crash between events
//	if the swap found nothing: arm the clock for the earliest timer and
//	sleep until a message or the clock wakes the loop, or the node stops
//
// Transports call enqueueMessage from any goroutine; Cluster calls start
// and stop (never both at once). Everything else — the Environment methods,
// the timer heap, the batch in hand — belongs to the loop goroutine and is
// reached only from Init, HandleMessage and HandleTimer.
//
// A crash keeps stable storage and every message that was enqueued but not
// handled (the inbox and the rest of the batch in hand), in order, for the
// next incarnation; it drops the process and all its timers. Messages that
// arrive while the node is down are dropped.
type Node struct {
	cluster *Cluster
	id      consensus.ProcessID

	store    storage.Store
	rng      *rand.Rand
	bootedAt time.Time

	mu      sync.Mutex
	running bool
	inbox   []arrival // waiting messages in arrival order, at most inboxBound
	done    chan struct{}
	wg      sync.WaitGroup

	decided   bool
	decidedAt time.Duration

	// wake holds at most one token: "the inbox went non-empty" or "the clock
	// fired". Senders never block on it.
	wake chan struct{}

	// Owned by the loop goroutine (stop touches them only after it exited).
	spare  []arrival // the drained slice the next swap hands to enqueuers
	timers timerHeap
	// clock is the node's one runtime timer; clockAt is the deadline it is
	// armed for (in the past: it has fired), zero when it is not armed.
	clock   *time.Timer
	clockAt time.Duration

	// lastSendAt tracks the previous Send's wall-clock instant for the
	// send-interval histogram.
	lastSendAt time.Time
}

func newLiveNode(c *Cluster, id consensus.ProcessID) (*Node, error) {
	var store storage.Store = storage.NewMemStore()
	if c.cfg.StateDir != "" {
		fs, err := storage.NewFileStore(filepath.Join(c.cfg.StateDir, fmt.Sprintf("p%d", id)))
		if err != nil {
			return nil, fmt.Errorf("live: node %d storage: %w", id, err)
		}
		store = fs
	}
	seed := time.Now().UnixNano() ^ int64(id)
	if c.cfg.Seed != 0 {
		seed = mixSeed(c.cfg.Seed, id, id, 0)
	}
	return &Node{
		cluster:  c,
		id:       id,
		store:    store,
		rng:      rand.New(rand.NewSource(seed)),
		bootedAt: time.Now(),
		wake:     make(chan struct{}, 1),
	}, nil
}

// start boots (or reboots) the process and its event loop.
func (n *Node) start() {
	n.mu.Lock()
	if n.running {
		n.mu.Unlock()
		return
	}
	n.running = true
	n.done = make(chan struct{})
	done := n.done
	n.mu.Unlock()

	n.wg.Add(1)
	go n.run(n.cluster.factory(n.id, n.cluster.cfg.N, n.cluster.proposals[n.id]), done)
}

// stop halts the event loop and drops the process and its timers, keeping
// stable storage and the unhandled messages. It blocks until the loop
// goroutine has exited.
func (n *Node) stop() {
	n.mu.Lock()
	if !n.running {
		n.mu.Unlock()
		return
	}
	n.running = false
	close(n.done)
	n.mu.Unlock()
	n.wg.Wait()
	// The loop is gone, so its state is ours: no timer of this incarnation
	// can reach the next one. A clock callback already in flight only
	// leaves a token in wake, which costs the next loop one empty turn.
	n.timers = timerHeap{}
	if n.clock != nil {
		n.clock.Stop()
		n.clockAt = 0
	}
}

// run is the node's event loop; see Node for the shape of one turn.
//
// No wake-up is lost because the loop sleeps only after a swap under mu
// found the inbox empty: an enqueue that comes later appends to an empty
// inbox under the same lock, so it signals, and the token waits in wake
// even if the loop has not reached its receive yet. Timers are armed only
// from handlers, which run on this goroutine, so every deadline is already
// in the heap when armClock reads it just before the sleep.
func (n *Node) run(p consensus.Process, done chan struct{}) {
	defer n.wg.Done()
	collector := n.cluster.collector
	// Init runs on the loop goroutine, like every other handler.
	p.Init(n)
	for {
		if !n.fireDue(p, done) {
			return
		}
		n.mu.Lock()
		batch := n.inbox
		n.inbox = n.spare
		n.mu.Unlock()
		n.spare = batch[:0]
		if len(batch) == 0 {
			n.armClock()
			select {
			case <-n.wake:
				continue
			case <-done:
				return
			}
		}
		for i := range batch {
			select {
			case <-done:
				n.keep(batch[i:])
				return
			default:
			}
			ev := &batch[i]
			if ev.enqueuedAt != 0 {
				collector.ObserveLatency(trace.HistInboxWait, n.Now()-ev.enqueuedAt)
			}
			p.HandleMessage(ev.from, ev.msg)
			*ev = arrival{} // the drained slice must not pin the message
		}
	}
}

// keep puts the unhandled rest of a batch back in front of whatever arrived
// after the swap, for the next incarnation. The loop calls it on its way
// out of a crash, when running is already false and nothing more arrives.
func (n *Node) keep(rest []arrival) {
	n.mu.Lock()
	defer n.mu.Unlock()
	later := n.inbox
	n.inbox = append(rest, later...)
	clear(later)
	n.spare = later[:0]
}

// enqueueMessage is the transport delivery callback; it may run on any
// goroutine.
func (n *Node) enqueueMessage(from consensus.ProcessID, m consensus.Message) {
	collector := n.cluster.collector
	ev := arrival{from: from, msg: m}
	observing := collector.HistogramsEnabled()
	if observing {
		ev.enqueuedAt = n.Now()
	}
	n.mu.Lock()
	depth := len(n.inbox)
	// A down node and inbox overflow are both omissions the model permits.
	if !n.running || depth >= inboxBound {
		n.mu.Unlock()
		collector.DroppedID(collector.Intern(m.Type()))
		return
	}
	n.inbox = append(n.inbox, ev)
	n.mu.Unlock()
	if depth == 0 {
		notify(n.wake)
	}
	collector.DeliveredID(collector.Intern(m.Type()))
	if observing {
		collector.ObserveValue(trace.HistInboxDepth, int64(depth+1))
	}
}

// --- timers (loop goroutine only) ---

// timerEntry is one arming of a timer. seq orders equal deadlines by arming
// and tells a live entry from one its timer has since left behind.
type timerEntry struct {
	at  time.Duration // deadline on the node clock
	seq uint64
	id  consensus.TimerID
}

func (a timerEntry) before(b timerEntry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// timerHeap is a node's armed timers: a binary min-heap of armings by
// (deadline, arming order) and, per armed ID, the seq of its current
// arming. Cancelling or re-arming only forgets the ID; the entry left in
// the heap is dead and is dropped when it comes due, or swept out once dead
// entries outnumber live ones, so len(heap) ≤ 2·len(armed) after every
// call and a fired or cancelled timer costs nothing for ever.
type timerHeap struct {
	heap  []timerEntry
	armed map[consensus.TimerID]uint64
	seq   uint64
}

// arm adds an arming of id, replacing the current one if there is one.
func (h *timerHeap) arm(id consensus.TimerID, at time.Duration) {
	if h.armed == nil {
		h.armed = make(map[consensus.TimerID]uint64)
	}
	h.seq++
	h.armed[id] = h.seq
	h.heap = append(h.heap, timerEntry{at: at, seq: h.seq, id: id})
	siftUp(h.heap, len(h.heap)-1)
	h.sweep()
}

// cancel forgets id; an unknown id is a no-op.
func (h *timerHeap) cancel(id consensus.TimerID) {
	if _, ok := h.armed[id]; ok {
		delete(h.armed, id)
		h.sweep()
	}
}

// popDue removes the earliest arming whose deadline is at or before now and
// returns its ID, discarding dead entries on the way. The timer leaves the
// table before its handler runs, so the handler may arm the same ID again.
func (h *timerHeap) popDue(now time.Duration) (consensus.TimerID, bool) {
	for len(h.heap) > 0 && h.heap[0].at <= now {
		e := h.heap[0]
		h.heap = popMin(h.heap)
		if h.armed[e.id] == e.seq {
			delete(h.armed, e.id)
			h.sweep()
			return e.id, true
		}
	}
	return 0, false
}

// earliest returns the earliest live deadline, discarding dead entries above
// it.
func (h *timerHeap) earliest() (time.Duration, bool) {
	for len(h.heap) > 0 {
		if top := h.heap[0]; h.armed[top.id] == top.seq {
			return top.at, true
		}
		h.heap = popMin(h.heap)
	}
	return 0, false
}

// sweep rebuilds the heap from its live entries once the dead outnumber
// them. Each sweep is paid for by the cancels that made it necessary.
func (h *timerHeap) sweep() {
	if len(h.heap) <= 2*len(h.armed) {
		return
	}
	live := h.heap[:0]
	for _, e := range h.heap {
		if h.armed[e.id] == e.seq {
			live = append(live, e)
		}
	}
	h.heap = live
	for i := len(live)/2 - 1; i >= 0; i-- {
		siftDown(h.heap, i)
	}
}

// fireDue runs the handler of every timer whose deadline has passed, in
// deadline order. It reports false if the node stopped meanwhile.
func (n *Node) fireDue(p consensus.Process, done chan struct{}) bool {
	if len(n.timers.heap) == 0 {
		return true
	}
	now := n.Now()
	for {
		select {
		case <-done:
			return false
		default:
		}
		id, ok := n.timers.popDue(now)
		if !ok {
			return true
		}
		p.HandleTimer(id)
	}
}

// armClock makes the runtime timer fire no later than the earliest deadline.
// It re-arms only when that deadline is earlier than the one the clock is
// set for, or the clock has fired; a clock left early by a cancel costs one
// empty turn of the loop, which is cheaper than a reset per cancel.
func (n *Node) armClock() {
	at, ok := n.timers.earliest()
	if !ok {
		return
	}
	now := n.Now()
	if n.clockAt > now && n.clockAt <= at {
		return
	}
	n.clockAt = at
	if n.clock == nil {
		n.clock = time.AfterFunc(at-now, func() { notify(n.wake) })
	} else {
		n.clock.Reset(at - now)
	}
}

// --- consensus.Environment implementation (called only from the loop) ---

var _ consensus.Environment = (*Node)(nil)

// ID implements consensus.Environment.
func (n *Node) ID() consensus.ProcessID { return n.id }

// N implements consensus.Environment.
func (n *Node) N() int { return n.cluster.cfg.N }

// Now implements consensus.Environment using the process-local monotonic
// clock (real local clocks; ρ≈0 between goroutines of one machine).
func (n *Node) Now() time.Duration { return time.Since(n.bootedAt) }

// Send implements consensus.Environment.
func (n *Node) Send(to consensus.ProcessID, m consensus.Message) {
	n.cluster.collector.SentID(n.cluster.collector.Intern(m.Type()))
	if n.cluster.collector.HistogramsEnabled() {
		now := time.Now()
		if !n.lastSendAt.IsZero() {
			n.cluster.collector.ObserveLatency(trace.HistSendInterval, now.Sub(n.lastSendAt))
		}
		n.lastSendAt = now
	}
	n.cluster.transport.Send(n.id, to, m)
}

// Broadcast implements consensus.Environment.
func (n *Node) Broadcast(m consensus.Message) {
	for i := 0; i < n.cluster.cfg.N; i++ {
		n.Send(consensus.ProcessID(i), m)
	}
}

// SetTimer implements consensus.Environment. Like every Environment
// method it is called from handlers, on the loop goroutine: it takes no
// lock and must not be called from anywhere else. The timer never fires
// inside SetTimer, even with d ≤ 0 — the loop fires it on its next turn.
func (n *Node) SetTimer(id consensus.TimerID, d time.Duration) {
	n.timers.arm(id, n.Now()+max(d, 0))
}

// CancelTimer implements consensus.Environment; see SetTimer for who may
// call it.
func (n *Node) CancelTimer(id consensus.TimerID) { n.timers.cancel(id) }

// Store implements consensus.Environment.
func (n *Node) Store() storage.Store { return n.store }

// Rand implements consensus.Environment.
func (n *Node) Rand() *rand.Rand { return n.rng }

// Decide implements consensus.Environment.
func (n *Node) Decide(v consensus.Value) {
	now := n.Now()
	_ = n.cluster.checker.RecordDecision(consensus.Decision{Proc: n.id, Value: v, At: now})
	n.mu.Lock()
	first := !n.decided
	if first {
		n.decided = true
		n.decidedAt = now
	}
	n.mu.Unlock()
	if first && n.cluster.collector.HistogramsEnabled() {
		// Same headline metric as the simulator: wall-clock decision
		// instant minus the stabilization offset, clamped at zero.
		lat := n.cluster.sinceStart() - n.cluster.cfg.TS
		if lat < 0 {
			lat = 0
		}
		n.cluster.collector.ObserveLatency(trace.HistDecideLatency, lat)
	}
}

// Emit implements consensus.Environment.
func (n *Node) Emit(kind string, value int64) {
	n.cluster.collector.Emit(n.Now(), int(n.id), kind, value)
}

// Span implements consensus.SpanSink: spans are stamped with the shared
// cluster timeline (offset from Start), not the node-local boot clock, so
// spans from different processes line up.
func (n *Node) Span(kind string, begin bool, value int64) {
	n.cluster.collector.Span(n.cluster.sinceStart(), int(n.id), kind, begin, value)
}

// ObserveDuration implements consensus.DurationObserver.
func (n *Node) ObserveDuration(name string, d time.Duration) {
	n.cluster.collector.ObserveLatency(name, d)
}

// ObserveValue implements consensus.ValueObserver.
func (n *Node) ObserveValue(name string, v int64) {
	n.cluster.collector.ObserveValue(name, v)
}

// SpansEnabled lets layered environments (the RSM slot env) skip span
// bookkeeping when recording is off.
func (n *Node) SpansEnabled() bool { return n.cluster.collector.SpansEnabled() }

// Logf implements consensus.Environment.
func (n *Node) Logf(format string, args ...any) {
	log.Printf("live p%d: "+format, append([]any{int(n.id)}, args...)...)
}

// Decided reports the node's decision state.
func (n *Node) Decided() (consensus.Value, bool) {
	if d, ok := n.cluster.checker.DecisionOf(n.id); ok {
		return d.Value, true
	}
	return "", false
}
