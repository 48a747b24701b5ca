package rsm

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/storage"
)

// slotEnv is the slot-scoped view of the replica's environment handed to
// each inner modpaxos instance: messages are wrapped in SlotMsg, timers are
// remapped into the slot's ID block, storage keys are prefixed, and Decide
// feeds the replica's log instead of the outer consensus checker (an RSM
// decides many values, one per slot).
//
// Everything that names the slot is computed once, when the instance is
// created: a stable-state slot then costs its messages, not a formatted
// string per persist, emit and cancel.
//
// Once retired (the slot applied; see Replica.retire) the environment drops
// Send, Broadcast and SetTimer. A message to the replica itself does not
// cross the network: it goes onto the replica's local queue, delivered when
// the current event ends (Replica.deliverLocal).
type slotEnv struct {
	replica *Replica
	slot    int64
	retired bool
	store   prefixStore
	// armed[i] holds while inner timer i may sit in the outer environment's
	// timer table: set by SetTimer, cleared by CancelTimer. A timer that
	// fired stays marked, so retiring the slot still removes its entry from
	// a table that keeps fired timers (live.Node's).
	armed [timersPerSlot]bool
}

var _ consensus.Environment = (*slotEnv)(nil)

// newSlotEnv builds the one string a slot instance needs: the full store key
// of the protocol's state record. The "slot<N>/" namespace is its head.
func newSlotEnv(r *Replica, slot int64) slotEnv {
	key := append(make([]byte, 0, 40), slotNamespace...)
	key = append(strconv.AppendInt(key, slot, 10), '/')
	prefix := len(key)
	full := string(append(key, storage.KeyModPaxosState...))
	return slotEnv{replica: r, slot: slot, store: prefixStore{
		inner: r.env.Store(), prefix: full[:prefix], last: full[prefix:], full: full,
	}}
}

// ID implements consensus.Environment.
func (e *slotEnv) ID() consensus.ProcessID { return e.replica.id }

// N implements consensus.Environment.
func (e *slotEnv) N() int { return e.replica.n }

// Now implements consensus.Environment.
func (e *slotEnv) Now() time.Duration { return e.replica.env.Now() }

// Send implements consensus.Environment. A retired slot sends nothing.
func (e *slotEnv) Send(to consensus.ProcessID, m consensus.Message) {
	if e.retired {
		return
	}
	msg := SlotMsg{Slot: e.slot, Inner: m}
	if to == e.replica.id {
		e.replica.local = append(e.replica.local, msg)
		return
	}
	e.replica.env.Send(to, msg)
}

// Broadcast implements consensus.Environment: the peers share one boxed
// SlotMsg, and the replica's own copy is queued locally. A retired slot
// sends nothing.
func (e *slotEnv) Broadcast(m consensus.Message) {
	if e.retired {
		return
	}
	msg := SlotMsg{Slot: e.slot, Inner: m}
	e.replica.sendPeers(msg)
	e.replica.local = append(e.replica.local, msg)
}

// SetTimer implements consensus.Environment. Inner timer IDs must fit the
// slot's block, which starts one block up: block 0 belongs to the replica's
// own serving-path timers (linger, catch-up). A retired slot arms nothing.
func (e *slotEnv) SetTimer(id consensus.TimerID, d time.Duration) {
	if id < 0 || int64(id) >= timersPerSlot {
		panic(fmt.Sprintf("rsm: inner timer id %d outside block size %d", id, timersPerSlot))
	}
	if e.retired {
		return
	}
	e.armed[id] = true
	e.replica.env.SetTimer(e.outerTimer(id), d)
}

// CancelTimer implements consensus.Environment. Only this environment arms
// the slot's block, so an ID it does not hold armed has nothing to cancel.
func (e *slotEnv) CancelTimer(id consensus.TimerID) {
	if id < 0 || int64(id) >= timersPerSlot || !e.armed[id] {
		return
	}
	e.armed[id] = false
	e.replica.env.CancelTimer(e.outerTimer(id))
}

// retire silences the environment, then cancels every timer the instance
// still holds armed.
func (e *slotEnv) retire() {
	e.retired = true
	for id, armed := range e.armed {
		if armed {
			e.CancelTimer(consensus.TimerID(id))
		}
	}
}

func (e *slotEnv) outerTimer(id consensus.TimerID) consensus.TimerID {
	return consensus.TimerID((e.slot+1)*timersPerSlot + int64(id))
}

// Store implements consensus.Environment.
func (e *slotEnv) Store() storage.Store { return &e.store }

// Rand implements consensus.Environment.
func (e *slotEnv) Rand() *rand.Rand { return e.replica.env.Rand() }

// Decide implements consensus.Environment: a slot decision goes to the
// replica's log.
func (e *slotEnv) Decide(v consensus.Value) { e.replica.onSlotDecided(e.slot, v) }

// Emit implements consensus.Environment. Slot instances share one series per
// inner kind, so the number of series does not grow with the log; the
// per-slot lane is the slot<N>-<kind> span.
func (e *slotEnv) Emit(kind string, value int64) {
	e.replica.env.Emit(slotSeries(kind), value)
}

// slotSeries names the series that slot instances' events of one kind land
// in. modpaxos emits "session" only.
func slotSeries(kind string) string {
	if kind == "session" {
		return "slot-session"
	}
	return "slot-" + kind
}

// spanEnabler lets the slot env skip the kind-prefix allocation when spans
// are off (both runtime Nodes implement it).
type spanEnabler interface{ SpansEnabled() bool }

// Span implements consensus.SpanSink when the outer environment does,
// namespacing the kind by slot so concurrent slots get distinct lanes.
func (e *slotEnv) Span(kind string, begin bool, value int64) {
	sink, ok := e.replica.env.(consensus.SpanSink)
	if !ok {
		return
	}
	if en, ok := e.replica.env.(spanEnabler); ok && !en.SpansEnabled() {
		return
	}
	// The store prefix is "slot<N>/": the lane tag without its separator.
	sink.Span(e.store.prefix[:len(e.store.prefix)-1]+"-"+kind, begin, value)
}

// ObserveDuration implements consensus.DurationObserver when the outer
// environment does. Histogram names are not slot-prefixed: slot latencies
// aggregate into one distribution.
func (e *slotEnv) ObserveDuration(name string, d time.Duration) {
	if obs, ok := e.replica.env.(consensus.DurationObserver); ok {
		obs.ObserveDuration(name, d)
	}
}

// Logf implements consensus.Environment.
func (e *slotEnv) Logf(format string, args ...any) {
	e.replica.env.Logf("slot %d: "+format, append([]any{e.slot}, args...)...)
}

// prefixStore namespaces a storage.Store by key prefix so slot instances
// cannot collide. A protocol instance persists under one key, so the full
// key of the last inner key asked for is kept, starting with the modpaxos
// state record's (newSlotEnv): a slot instance never builds a key.
type prefixStore struct {
	inner      storage.Store
	prefix     string // a slice of the first full key
	last, full string // full == prefix+last
}

var _ storage.Store = (*prefixStore)(nil)

// key returns the outer key for an inner one.
func (s *prefixStore) key(inner string) string {
	if inner != s.last {
		s.last, s.full = inner, s.prefix+inner
	}
	return s.full
}

// Put implements storage.Store. The prefix is always the registered slot
// namespace (see newSlotEnv above).
func (s *prefixStore) Put(key string, value any) error { return s.inner.Put(s.key(key), value) }

// Get implements storage.Store.
func (s *prefixStore) Get(key string, out any) (bool, error) { return s.inner.Get(s.key(key), out) }

// Delete implements storage.Store.
func (s *prefixStore) Delete(key string) error { return s.inner.Delete(s.key(key)) }

// Keys implements storage.Store: only keys in this slot's namespace, with
// the prefix stripped.
func (s *prefixStore) Keys() ([]string, error) {
	all, err := s.inner.Keys()
	if err != nil {
		return nil, err
	}
	var out []string
	for _, k := range all {
		if len(k) >= len(s.prefix) && k[:len(s.prefix)] == s.prefix {
			out = append(out, k[len(s.prefix):])
		}
	}
	return out, nil
}
