// Package consensustest provides a scripted, inspectable Environment for
// handler-level protocol unit tests: tests drive a Process by hand
// (Init/HandleMessage/HandleTimer) and assert exactly which messages were
// sent, which timers were (re)armed, and what was decided — no simulator,
// no goroutines, no time.
package consensustest

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/storage"
)

// Sent records one outgoing message. Broadcast appears as one Sent per
// destination, in destination order.
type Sent struct {
	To  consensus.ProcessID
	Msg consensus.Message
}

// Env is the scripted environment. Mutate Clock directly to model local
// time passing between handler calls.
type Env struct {
	PID consensus.ProcessID
	NN  int
	// Clock is the local-clock reading returned by Now.
	Clock time.Duration
	// Outbox collects every Send/Broadcast in order.
	Outbox []Sent
	// Timers maps armed timer IDs to their most recent duration.
	Timers map[consensus.TimerID]time.Duration
	// Armings counts SetTimer calls per ID (to observe re-arming).
	Armings map[consensus.TimerID]int
	// Canceled lists CancelTimer calls in order.
	Canceled []consensus.TimerID
	// Decisions lists every Decide call (protocol bugs may call twice).
	Decisions []consensus.Value
	// Storage is the stable store (shared across restarts in tests).
	Storage *storage.MemStore
	// Emitted collects Emit observations per kind.
	Emitted map[string][]int64
	// Spans collects Span calls in order (tests assert phase progression).
	Spans []SpanCall
	// Durations collects ObserveDuration observations per histogram name.
	Durations map[string][]time.Duration
	// Logs collects Logf lines.
	Logs []string

	rng *rand.Rand
}

// SpanCall records one consensus.SpanSink invocation.
type SpanCall struct {
	Kind  string
	Begin bool
	Value int64
}

var _ consensus.Environment = (*Env)(nil)
var _ consensus.SpanSink = (*Env)(nil)
var _ consensus.DurationObserver = (*Env)(nil)

// New returns an environment for process id of n.
func New(id consensus.ProcessID, n int) *Env {
	return &Env{
		PID:       id,
		NN:        n,
		Timers:    make(map[consensus.TimerID]time.Duration),
		Armings:   make(map[consensus.TimerID]int),
		Storage:   storage.NewMemStore(),
		Emitted:   make(map[string][]int64),
		Durations: make(map[string][]time.Duration),
		rng:       rand.New(rand.NewSource(1)),
	}
}

// ID implements consensus.Environment.
func (e *Env) ID() consensus.ProcessID { return e.PID }

// N implements consensus.Environment.
func (e *Env) N() int { return e.NN }

// Now implements consensus.Environment.
func (e *Env) Now() time.Duration { return e.Clock }

// Send implements consensus.Environment.
func (e *Env) Send(to consensus.ProcessID, m consensus.Message) {
	e.Outbox = append(e.Outbox, Sent{To: to, Msg: m})
}

// Broadcast implements consensus.Environment.
func (e *Env) Broadcast(m consensus.Message) {
	for i := 0; i < e.NN; i++ {
		e.Send(consensus.ProcessID(i), m)
	}
}

// SetTimer implements consensus.Environment.
func (e *Env) SetTimer(id consensus.TimerID, d time.Duration) {
	e.Timers[id] = d
	e.Armings[id]++
}

// CancelTimer implements consensus.Environment.
func (e *Env) CancelTimer(id consensus.TimerID) {
	delete(e.Timers, id)
	e.Canceled = append(e.Canceled, id)
}

// Store implements consensus.Environment.
func (e *Env) Store() storage.Store { return e.Storage }

// Rand implements consensus.Environment.
func (e *Env) Rand() *rand.Rand { return e.rng }

// Decide implements consensus.Environment.
func (e *Env) Decide(v consensus.Value) { e.Decisions = append(e.Decisions, v) }

// Emit implements consensus.Environment.
func (e *Env) Emit(kind string, value int64) {
	e.Emitted[kind] = append(e.Emitted[kind], value)
}

// Span implements consensus.SpanSink.
func (e *Env) Span(kind string, begin bool, value int64) {
	e.Spans = append(e.Spans, SpanCall{Kind: kind, Begin: begin, Value: value})
}

// ObserveDuration implements consensus.DurationObserver.
func (e *Env) ObserveDuration(name string, d time.Duration) {
	e.Durations[name] = append(e.Durations[name], d)
}

// Logf implements consensus.Environment.
func (e *Env) Logf(format string, args ...any) {
	e.Logs = append(e.Logs, fmt.Sprintf(format, args...))
}

// --- assertion helpers ---

// ClearOutbox drops recorded sends (typically after Init).
func (e *Env) ClearOutbox() { e.Outbox = nil }

// AllocsPerStep reports how many times one call of step allocates once
// warm: step runs once first (boxing whatever it boxes once, growing the
// outbox), then repeatedly with the outbox emptied before each call, so
// recording the sends costs nothing. Pre-box any message step delivers.
func (e *Env) AllocsPerStep(step func()) float64 {
	step()
	return testing.AllocsPerRun(100, func() {
		e.Outbox = e.Outbox[:0]
		step()
	})
}

// SentTo returns the messages sent to one process, in order.
func (e *Env) SentTo(to consensus.ProcessID) []consensus.Message {
	var out []consensus.Message
	for _, s := range e.Outbox {
		if s.To == to {
			out = append(out, s.Msg)
		}
	}
	return out
}

// CountType returns how many outbox entries have the given Message.Type.
func (e *Env) CountType(msgType string) int {
	n := 0
	for _, s := range e.Outbox {
		if s.Msg.Type() == msgType {
			n++
		}
	}
	return n
}

// BroadcastsOf returns how many full broadcasts (one send per process) of
// the given type were made, assuming broadcasts are not interleaved.
func (e *Env) BroadcastsOf(msgType string) int {
	return e.CountType(msgType) / e.NN
}

// Decided returns the single decided value; it reports an error string for
// zero or conflicting decisions.
func (e *Env) Decided() (consensus.Value, bool) {
	if len(e.Decisions) == 0 {
		return "", false
	}
	return e.Decisions[0], true
}
