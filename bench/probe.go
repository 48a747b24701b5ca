package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/live"
	"repro/internal/rsm"
	"repro/internal/storage"
)

// Probes measure every layer from outside, through the three public seams
// the code already has: a consensus.Process wrapper times each handler per
// node and message type, a consensus.Environment wrapper counts sends and
// hands out a timing storage.Store, and a live.Transport decorator stamps
// Send entry/exit and handler delivery. A handler's self time is its span
// minus the Store and Send child spans inside it. Waits need no per-message
// matching: Σ(dequeue) − Σ(enqueue) over the same set of messages is the
// total wait whatever the pairing.

// noSlot marks a span that belongs to no log slot.
const noSlot = int64(-1)

// maxSpansPerNode bounds the spans kept verbatim per node (the aggregates
// cover every span); a traced serve run would otherwise hold millions.
const maxSpansPerNode = 20000

// maxTraceRequests bounds the request records written to the trace file.
const maxTraceRequests = 20000

// span is one timed interval at a layer boundary.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // enclosing span on the same node, 0 for a handler
	Name   string `json:"name"`
	Node   int    `json:"node"`
	Start  int64  `json:"start_ns"` // host ns since the tracer's epoch
	End    int64  `json:"end_ns"`
	Slot   int64  `json:"slot"` // log slot when the message is an rsm.SlotMsg, else −1
}

// agg accumulates every span of one name on one node.
type agg struct {
	Count int64 `json:"count"`
	Total int64 `json:"total_ns"`
	Self  int64 `json:"self_ns"`
}

type openSpan struct {
	id, parent int64
	name       string
	start      int64
	slot       int64
	child      int64 // time covered by child spans
}

// nodeTrace is one node's recorder. It is touched only from that node's
// event loop (handlers, and the Environment/Transport calls they make), so it
// needs no lock.
type nodeTrace struct {
	t      *tracer
	node   int
	stack  []openSpan
	aggs   map[string]*agg
	spans  []span
	nextID int64
	names  map[nameKey]string

	// Handlers are timed one in `every`, picked by rng, and every recorded
	// duration and count is weighted by `every`: the estimates stay unbiased
	// and the probes' own cost drops below the work they time. off is set
	// while an unsampled handler runs, which silences its child spans.
	every uint32
	rng   uint32
	off   bool

	// Exact counts, kept for every handler whether sampled or not.
	recipients  int64 // Send calls plus Broadcast recipients
	timerFires  int64
	msgsHandled int64
	proposals   int64 // client proposals handled (the leader is where they land)
	handleStart int64 // Σ of message-handler start stamps, for the inbox wait
	handlerBusy int64 // Σ of (weighted) handler span durations
}

// linkStats accumulates the transport decorator's stamps for messages to
// one destination; delivery runs on transport goroutines, hence atomics.
type linkStats struct {
	sent      atomic.Int64
	sendExit  atomic.Int64 // Σ of Send-exit stamps
	delivered atomic.Int64
	deliverAt atomic.Int64 // Σ of handler-delivery stamps
}

// tracer owns one traced run's recorders.
type tracer struct {
	epoch time.Time
	nodes []*nodeTrace
	links []linkStats
	// keepSpans is how many spans each node keeps verbatim.
	keepSpans int
}

// newTracer returns a tracer for the given number of nodes that times one
// handler in every.
func newTracer(nodes int, every uint32) *tracer {
	t := &tracer{epoch: time.Now(), links: make([]linkStats, nodes), keepSpans: maxSpansPerNode}
	for i := 0; i < nodes; i++ {
		t.nodes = append(t.nodes, &nodeTrace{
			t: t, node: i, aggs: make(map[string]*agg), names: make(map[nameKey]string),
			every: every, rng: uint32(2463534242 + i),
		})
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// draw decides whether the handler about to run is timed; an untimed one
// runs with off set, which silences its child spans.
func (n *nodeTrace) draw() bool {
	if n.every > 1 {
		// xorshift32: cheap, and unlike a counter it cannot fall into step
		// with a periodic message pattern (a batch of eight proposals, say).
		n.rng ^= n.rng << 13
		n.rng ^= n.rng >> 17
		n.rng ^= n.rng << 5
		n.off = n.rng%n.every != 0
	}
	return !n.off
}

// begin opens a span nested in the node's current one.
func (n *nodeTrace) begin(name string, slot int64) {
	if n.off {
		return
	}
	var parent int64
	if len(n.stack) > 0 {
		parent = n.stack[len(n.stack)-1].id
	}
	n.nextID++
	n.stack = append(n.stack, openSpan{
		id: int64(n.node)<<40 | n.nextID, parent: parent, name: name, start: n.t.now(), slot: slot,
	})
}

// end closes the innermost span and returns its end stamp (0 when the
// handler it belongs to is not being timed).
func (n *nodeTrace) end() int64 {
	if n.off {
		return 0
	}
	now := n.t.now()
	o := n.stack[len(n.stack)-1]
	n.stack = n.stack[:len(n.stack)-1]
	dur := (now - o.start) * int64(n.every)
	a := n.aggs[o.name]
	if a == nil {
		a = &agg{}
		n.aggs[o.name] = a
	}
	a.Count += int64(n.every)
	a.Total += dur
	a.Self += dur - o.child
	if len(n.stack) > 0 {
		n.stack[len(n.stack)-1].child += dur
	} else {
		n.handlerBusy += dur
	}
	if len(n.spans) < n.t.keepSpans {
		n.spans = append(n.spans, span{
			ID: o.id, Parent: o.parent, Name: o.name, Node: n.node, Start: o.start, End: now, Slot: o.slot,
		})
	}
	return now
}

// get returns the aggregate of one span name.
func (n *nodeTrace) get(name string) agg {
	if a := n.aggs[name]; a != nil {
		return *a
	}
	return agg{}
}

// sum adds up the aggregates whose names satisfy match.
func (n *nodeTrace) sum(match func(name string) bool) agg {
	var out agg
	for name, a := range n.aggs {
		if match(name) {
			out.Count += a.Count
			out.Total += a.Total
			out.Self += a.Self
		}
	}
	return out
}

// Span name prefixes.
const (
	spanHandle    = "handle/"
	spanTimer     = "timer/"
	spanSend      = "send"
	spanTransport = "transport.send"
	spanStore     = "store."
)

func isHandler(name string) bool {
	return strings.HasPrefix(name, spanHandle) || strings.HasPrefix(name, spanTimer)
}

func isStore(name string) bool { return strings.HasPrefix(name, spanStore) }

// nameKey identifies a message type for the handler-name cache: the concrete
// type, or the inner type of an rsm.SlotMsg.
type nameKey struct {
	kind    reflect.Type
	wrapped bool
}

// handlerName returns "handle/<message type>", cached per type because
// SlotMsg.Type concatenates on every call.
func (n *nodeTrace) handlerName(m consensus.Message) string {
	k := nameKey{kind: reflect.TypeOf(m)}
	if sm, ok := m.(rsm.SlotMsg); ok && sm.Inner != nil {
		k = nameKey{reflect.TypeOf(sm.Inner), true}
	}
	name, ok := n.names[k]
	if !ok {
		name = spanHandle + m.Type()
		n.names[k] = name
	}
	return name
}

// replicaTimerNames names the timers below rsm's per-slot blocks.
var replicaTimerNames = [8]string{
	spanTimer + "0", spanTimer + "1", spanTimer + "2", spanTimer + "3",
	spanTimer + "4", spanTimer + "5", spanTimer + "6", spanTimer + "7",
}

// tracedProc times every handler of the process it wraps.
type tracedProc struct {
	inner consensus.Process
	nt    *nodeTrace
	// live is set on the live runtime, where messages wait in an inbox.
	live bool
}

var _ consensus.Process = (*tracedProc)(nil)

func (p *tracedProc) Init(env consensus.Environment) {
	p.nt.begin(spanHandle+"init", noSlot)
	p.inner.Init(env)
	p.nt.end()
}

func (p *tracedProc) HandleMessage(from consensus.ProcessID, m consensus.Message) {
	p.nt.msgsHandled++
	if _, ok := m.(rsm.ClientPropose); ok {
		p.nt.proposals++
	}
	if p.live {
		// The inbox wait needs the start stamp of every handled message.
		p.nt.handleStart += p.nt.t.now()
	}
	if !p.nt.draw() {
		p.inner.HandleMessage(from, m)
		p.nt.off = false
		return
	}
	slot := noSlot
	if sm, ok := m.(rsm.SlotMsg); ok {
		slot = sm.Slot
	}
	p.nt.begin(p.nt.handlerName(m), slot)
	p.inner.HandleMessage(from, m)
	p.nt.end()
}

func (p *tracedProc) HandleTimer(id consensus.TimerID) {
	// rsm multiplexes per-slot timers into ID blocks of 8 above its own
	// block 0 (see rsm's timersPerSlot); everything in a slot block is named
	// alike so the aggregate table stays small.
	name := spanTimer + "slot"
	if id >= 0 && int(id) < len(replicaTimerNames) {
		name = replicaTimerNames[id]
	}
	p.nt.timerFires++
	if !p.nt.draw() {
		p.inner.HandleTimer(id)
		p.nt.off = false
		return
	}
	p.nt.begin(name, noSlot)
	p.inner.HandleTimer(id)
	p.nt.end()
}

// replicaProc narrows a replica's view of the cluster to the first n nodes —
// the substrate also hosts the generator nodes, which must not leak into
// quorum math or broadcasts — and, when traced, interposes the probing
// Environment.
type replicaProc struct {
	inner consensus.Process
	n     int
	nt    *nodeTrace // nil when the run is not traced
}

var _ consensus.Process = (*replicaProc)(nil)

func (p *replicaProc) Init(env consensus.Environment) {
	e := &replicaEnv{Environment: env, n: p.n, nt: p.nt}
	if p.nt != nil {
		e.store = &tracedStore{inner: env.Store(), nt: p.nt}
	}
	p.inner.Init(e)
}

func (p *replicaProc) HandleMessage(from consensus.ProcessID, m consensus.Message) {
	p.inner.HandleMessage(from, m)
}

func (p *replicaProc) HandleTimer(id consensus.TimerID) { p.inner.HandleTimer(id) }

// clusterFactory hosts the replica group on the first `replicas` node ids and
// the generators on the ids after them, wrapping every node with a timing
// probe when the run is traced. It returns the factory and the proposals the
// substrate wants: generators "decide" doneValue, replicas decide nothing.
func clusterFactory(rsmFactory consensus.Factory, gens []*generator, tr *tracer, onLive bool) (consensus.Factory, []consensus.Value) {
	factory := func(id consensus.ProcessID, _ int, proposal consensus.Value) consensus.Process {
		var nt *nodeTrace
		if tr != nil {
			nt = tr.nodes[id]
		}
		var proc consensus.Process
		if int(id) < replicas {
			proc = &replicaProc{inner: rsmFactory(id, replicas, proposal), n: replicas, nt: nt}
		} else {
			proc = gens[int(id)-replicas]
		}
		if nt != nil {
			proc = &tracedProc{inner: proc, nt: nt, live: onLive}
		}
		return proc
	}
	proposals := make([]consensus.Value, replicas+len(gens))
	for i := replicas; i < len(proposals); i++ {
		proposals[i] = doneValue
	}
	return factory, proposals
}

// replicaEnv is the Environment a replica sees.
type replicaEnv struct {
	consensus.Environment
	n     int
	nt    *nodeTrace
	store storage.Store
}

func (e *replicaEnv) N() int { return e.n }

func (e *replicaEnv) Send(to consensus.ProcessID, m consensus.Message) {
	if e.nt == nil {
		e.Environment.Send(to, m)
		return
	}
	e.nt.recipients++
	e.nt.begin(spanSend, noSlot)
	e.Environment.Send(to, m)
	e.nt.end()
}

func (e *replicaEnv) Broadcast(m consensus.Message) {
	for i := 0; i < e.n; i++ {
		e.Send(consensus.ProcessID(i), m)
	}
}

func (e *replicaEnv) Store() storage.Store {
	if e.store != nil {
		return e.store
	}
	return e.Environment.Store()
}

// tracedStore times every storage call as a child span of the handler that
// made it.
type tracedStore struct {
	inner storage.Store
	nt    *nodeTrace
}

var _ storage.Store = (*tracedStore)(nil)

// Put implements storage.Store.
func (s *tracedStore) Put(key string, value any) error {
	s.nt.begin(spanStore+"put", noSlot)
	//repro:allow keylint forwards the wrapped replica's own registered keys
	err := s.inner.Put(key, value)
	s.nt.end()
	return err
}

// Get implements storage.Store.
func (s *tracedStore) Get(key string, out any) (bool, error) {
	s.nt.begin(spanStore+"get", noSlot)
	ok, err := s.inner.Get(key, out)
	s.nt.end()
	return ok, err
}

// Delete implements storage.Store.
func (s *tracedStore) Delete(key string) error {
	s.nt.begin(spanStore+"delete", noSlot)
	err := s.inner.Delete(key)
	s.nt.end()
	return err
}

// Keys implements storage.Store.
func (s *tracedStore) Keys() ([]string, error) {
	s.nt.begin(spanStore+"keys", noSlot)
	keys, err := s.inner.Keys()
	s.nt.end()
	return keys, err
}

// tracedTransport decorates a live.Transport: Send is a child span of the
// sending node's current handler, and its exit stamp and the destination
// handler's delivery stamp feed the per-link sums.
type tracedTransport struct {
	inner live.Transport
	t     *tracer
}

var _ live.Transport = (*tracedTransport)(nil)

// Register implements live.Transport.
func (x *tracedTransport) Register(id consensus.ProcessID, h func(consensus.ProcessID, consensus.Message)) {
	l := &x.t.links[id]
	x.inner.Register(id, func(from consensus.ProcessID, m consensus.Message) {
		l.deliverAt.Add(x.t.now())
		l.delivered.Add(1)
		h(from, m)
	})
}

// Send implements live.Transport. It runs on the sender's event loop (Send
// is Environment API), which is what makes the node recorder safe here.
func (x *tracedTransport) Send(from, to consensus.ProcessID, m consensus.Message) {
	nt := x.t.nodes[from]
	nt.begin(spanTransport, noSlot)
	x.inner.Send(from, to, m)
	exit := nt.end()
	if exit == 0 {
		exit = x.t.now() // the link sums need every message's stamp
	}
	l := &x.t.links[to]
	l.sendExit.Add(exit)
	l.sent.Add(1)
}

// Close implements live.Transport.
func (x *tracedTransport) Close() error { return x.inner.Close() }

// leader is the replica that handled the most client proposals — where the
// serving path ran — among the first n nodes.
func (t *tracer) leader(n int) int {
	best := 0
	for i := 1; i < n; i++ {
		if t.nodes[i].proposals > t.nodes[best].proposals {
			best = i
		}
	}
	return best
}

// linkTotals sums the per-destination stamps.
func (t *tracer) linkTotals() (sent, sendExit, delivered, deliverAt int64) {
	for i := range t.links {
		l := &t.links[i]
		sent += l.sent.Load()
		sendExit += l.sendExit.Load()
		delivered += l.delivered.Load()
		deliverAt += l.deliverAt.Load()
	}
	return
}

// traceRequest is one client operation in the trace file: Slot joins it to
// the spans of the consensus instance that committed it.
type traceRequest struct {
	Client int64  `json:"client"`
	Seq    uint64 `json:"seq"`
	Slot   int64  `json:"slot"`
}

// traceFile is the layout of bench/out/trace-<workload>.json.
type traceFile struct {
	Workload   string                     `json:"workload"`
	Seed       int64                      `json:"seed"`
	Note       string                     `json:"note"`
	Aggregates map[string]map[string]*agg `json:"aggregates"` // node → span name → totals over every span
	Requests   []traceRequest             `json:"requests"`
	Spans      []span                     `json:"spans"`
}

// write dumps the kept spans, the full aggregates, and the request → slot
// join table.
func (t *tracer) write(dir, workload string, seed int64, slotOf map[opID]int64) (string, error) {
	f := traceFile{
		Workload: workload, Seed: seed,
		Note: fmt.Sprintf("handlers are timed one in %d (with their child spans) and the aggregates weight each by %d; "+
			"spans: the first %d timed per node, host ns since the run's epoch; "+
			"requests: the first %d applied operations with the slot that committed them",
			t.nodes[0].every, t.nodes[0].every, maxSpansPerNode, maxTraceRequests),
		Aggregates: make(map[string]map[string]*agg),
	}
	for _, n := range t.nodes {
		f.Aggregates["node"+strconv.Itoa(n.node)] = n.aggs
		f.Spans = append(f.Spans, n.spans...)
	}
	sort.Slice(f.Spans, func(i, j int) bool { return f.Spans[i].Start < f.Spans[j].Start })
	for id, slot := range slotOf {
		f.Requests = append(f.Requests, traceRequest{id.Client, id.Seq, slot})
	}
	sort.Slice(f.Requests, func(i, j int) bool {
		a, b := f.Requests[i], f.Requests[j]
		if a.Slot != b.Slot {
			return a.Slot < b.Slot
		}
		if a.Client != b.Client {
			return a.Client < b.Client
		}
		return a.Seq < b.Seq
	})
	if len(f.Requests) > maxTraceRequests {
		f.Requests = f.Requests[:maxTraceRequests]
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(f)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	return path, nil
}
