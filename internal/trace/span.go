package trace

import (
	"sort"
	"time"
)

// The span kinds emitted by this repository's instrumentation. Span kinds
// are open-ended strings (interned per collector); these constants name the
// taxonomy the harness, cores, and oracles emit so exporters and tests can
// refer to them.
const (
	// SpanRun covers the whole run (proc −1).
	SpanRun = "run"
	// SpanPreTS covers time before stabilization (proc −1).
	SpanPreTS = "pre-ts"
	// SpanPostTS covers stabilization to the end of the run (proc −1).
	SpanPostTS = "post-ts"
	// SpanLeaderEpoch covers one leader's reign under the Ω oracle
	// (proc −1, value = leader ID).
	SpanLeaderEpoch = "leader-epoch"
	// SpanSession covers one modified-Paxos ballot session at one process
	// (value = session number).
	SpanSession = "session"
	// SpanBallot covers one traditional-Paxos ballot attempt at one process
	// (value = ballot number).
	SpanBallot = "ballot"
	// SpanRound covers one round of the round-based or B-Consensus
	// algorithms at one process (value = round number).
	SpanRound = "round"
	// SpanDown covers a crash window at one process (value = crash count).
	SpanDown = "down"
	// SpanRSMOp covers one RSM client operation from submit to commit ack
	// at the issuing client (value = sequence number). Together with the
	// proposer's per-slot "slotN-commit"/"slotN-apply" lanes it gives the
	// timeline the full propose→commit→apply path.
	SpanRSMOp = "rsm-op"
	// SpanRSMFailover covers an RSM leadership takeover at the promoted
	// replica (value = adopted epoch): from the moment the old leader was
	// last heard to the new leader finishing log repair. Its length is the
	// replica-side recovery window of a failover.
	SpanRSMFailover = "rsm-failover"
)

// SpanEvent is one raw begin/end record in the collector's span ring. Spans
// are recorded as independent typed events — not paired objects — so the hot
// path writes one fixed-size slot and pairing happens once, at export
// (PairSpans).
type SpanEvent struct {
	// At is the event time: virtual time under the simulator, time since
	// run start under the live runtime.
	At time.Duration
	// Value is the kind-specific payload (session/round/ballot number,
	// leader ID, crash count).
	Value int64
	// Kind is the interned span-kind ID (Collector.SpanKindNames resolves).
	Kind int32
	// Proc is the process the span belongs to, or −1 for run-level lanes.
	Proc int32
	// Begin distinguishes begin records from end records.
	Begin bool
}

// defaultSpanCapacity sizes the ring when EnableSpans is called with a
// non-positive capacity.
const defaultSpanCapacity = 4096

// EnableSpans turns on span collection into a preallocated ring buffer of
// the given capacity (≤ 0 selects the default). When the ring wraps, the
// oldest events are overwritten (SpansDropped counts them) — observability
// must never grow memory without bound on a pathological run. Call before
// the run starts feeding the collector: the per-record gate (SpansEnabled)
// is a plain flag read, unsynchronized against this write.
func (c *Collector) EnableSpans(capacity int) {
	if capacity <= 0 {
		capacity = defaultSpanCapacity
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.spanBuf = make([]SpanEvent, capacity)
	c.spanHead = 0
	c.spanTotal = 0
	c.spansOn = true
}

// SpansEnabled reports whether span collection is on. Like
// HistogramsEnabled it is a plain bool read, so the disabled emission path
// costs a branch and allocates nothing.
func (c *Collector) SpansEnabled() bool { return c.spansOn }

// Span records one begin/end event at an explicit time. No-op unless
// EnableSpans was called. Safe for concurrent use (live-runtime writers);
// under the simulator the lock is uncontended. The enabled path allocates
// only when a new kind string is interned — steady-state emission writes a
// preallocated ring slot.
func (c *Collector) Span(at time.Duration, proc int, kind string, begin bool, value int64) {
	if !c.spansOn {
		return
	}
	c.mu.Lock()
	id, ok := c.spanKindIDs[kind]
	if !ok {
		if c.spanKindIDs == nil {
			c.spanKindIDs = make(map[string]int32, 8)
		}
		id = int32(len(c.spanKindNames))
		c.spanKindIDs[kind] = id
		c.spanKindNames = append(c.spanKindNames, kind)
	}
	c.spanBuf[c.spanHead] = SpanEvent{At: at, Value: value, Kind: id, Proc: int32(proc), Begin: begin}
	c.spanHead++
	if c.spanHead == len(c.spanBuf) {
		c.spanHead = 0
	}
	c.spanTotal++
	c.mu.Unlock()
}

// SpanKindNames returns a copy of the interned kind table, indexed by ID.
func (c *Collector) SpanKindNames() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.spanKindNames))
	copy(out, c.spanKindNames)
	return out
}

// SpanEvents returns the retained span events in record order (oldest
// first), unwrapping the ring.
func (c *Collector) SpanEvents() []SpanEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.spanTotal == 0 {
		return nil
	}
	if c.spanTotal <= uint64(len(c.spanBuf)) {
		out := make([]SpanEvent, c.spanHead)
		copy(out, c.spanBuf[:c.spanHead])
		return out
	}
	out := make([]SpanEvent, 0, len(c.spanBuf))
	out = append(out, c.spanBuf[c.spanHead:]...)
	out = append(out, c.spanBuf[:c.spanHead]...)
	return out
}

// SpansDropped returns how many events were overwritten by ring wraparound.
func (c *Collector) SpansDropped() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.spanTotal <= uint64(len(c.spanBuf)) {
		return 0
	}
	return c.spanTotal - uint64(len(c.spanBuf))
}

// RecordRunPhases emits the run-level phase spans — run, pre-TS, post-TS —
// with explicit timestamps. Both backends call it once after the run
// completes, so phase accounting schedules no events and draws no
// randomness: enabling observability cannot perturb a schedule.
func (c *Collector) RecordRunPhases(ts, end time.Duration) {
	if !c.spansOn {
		return
	}
	c.Span(0, -1, SpanRun, true, 0)
	if ts > 0 {
		preEnd := ts
		if preEnd > end {
			preEnd = end
		}
		c.Span(0, -1, SpanPreTS, true, 0)
		c.Span(preEnd, -1, SpanPreTS, false, 0)
	}
	if end > ts {
		c.Span(ts, -1, SpanPostTS, true, 0)
		c.Span(end, -1, SpanPostTS, false, 0)
	}
	c.Span(end, -1, SpanRun, false, 0)
}

// Span is one paired phase interval, produced by PairSpans.
type Span struct {
	// Kind is the resolved span kind name.
	Kind string `json:"kind"`
	// Proc is the owning process, or −1 for run-level lanes.
	Proc int `json:"proc"`
	// Start and End bound the interval.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// Value is the begin record's payload.
	Value int64 `json:"value"`
	// Open marks a span that was still open when the snapshot was taken
	// (its End is the snapshot end time).
	Open bool `json:"open,omitempty"`
}

// PairSpans pairs raw begin/end events into intervals. A begin record for a
// (kind, proc) that already has an open span closes it — entering session 4
// ends session 3 without the protocol emitting an explicit end. End records
// without a matching begin (the begin was overwritten by ring wraparound)
// are dropped. Spans still open after the last event are closed at end and
// marked Open. The result is sorted by (Start, Proc, Kind) — deterministic
// whatever goroutine interleaving recorded the events.
func PairSpans(events []SpanEvent, kindName func(int32) string, end time.Duration) []Span {
	type key struct {
		kind int32
		proc int32
	}
	open := make(map[key]SpanEvent)
	var out []Span
	closeSpan := func(begin SpanEvent, at time.Duration, stillOpen bool) {
		out = append(out, Span{
			Kind:  kindName(begin.Kind),
			Proc:  int(begin.Proc),
			Start: begin.At,
			End:   at,
			Value: begin.Value,
			Open:  stillOpen,
		})
	}
	for _, ev := range events {
		k := key{kind: ev.Kind, proc: ev.Proc}
		if ev.Begin {
			if prev, ok := open[k]; ok {
				closeSpan(prev, ev.At, false)
			}
			open[k] = ev
			continue
		}
		if prev, ok := open[k]; ok {
			closeSpan(prev, ev.At, false)
			delete(open, k)
		}
	}
	for _, begin := range open {
		at := end
		if at < begin.At {
			at = begin.At
		}
		closeSpan(begin, at, true)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		if out[i].Proc != out[j].Proc {
			return out[i].Proc < out[j].Proc
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}
