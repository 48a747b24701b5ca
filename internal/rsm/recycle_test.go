package rsm

import (
	"maps"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/core/consensus/consensustest"
	"repro/internal/core/modpaxos"
)

// TestRetiredInstanceServesALaterSlot drives the leader of 3 (batch 2,
// pipeline 1, linger 1 ms) by hand through five slots. Slots 0 and 1 retire
// inside their own Decide while the same event flushes the queue into the
// next slot; slot 3, which the leader never proposed, opens on a peer's
// Decided, queues its opening P1a to the replica itself, decides, applies and
// retires in one event that also flushes slot 4. It holds that
//
//   - the slot a Decide opens never gets the instance that Decide runs on:
//     a retired instance serves a later slot only once its event has ended;
//   - late P2b and P1a messages, the locally queued P1a and every timer of a
//     retired slot's block reach nothing but the decision log, while the
//     retired slot's instance serves another slot;
//   - the whole run sends, arms, cancels and applies exactly what it does
//     when every slot opens a new instance.
func TestRetiredInstanceServesALaterSlot(t *testing.T) {
	op := func(client int64) consensus.Value {
		return consensus.Value("set k" + strconv.FormatInt(client, 10) + " v")
	}
	batch := func(client int64) consensus.Value {
		return EncodeBatch([]Command{{Client: client, Seq: 1, Op: op(client)}})
	}
	higher := consensus.BallotFor(2, 2, 3)

	run := func(fresh bool) (*Replica, *consensustest.Env) {
		r, env := handReplica(t, Leader(), Config{MaxBatch: 2, MaxInFlight: 1, Linger: time.Millisecond})
		check := func(ok bool, format string, args ...any) {
			t.Helper()
			if !fresh && !ok {
				t.Errorf(format, args...)
			}
		}
		// event runs one event; a fresh run never recycles.
		event := func(at time.Duration, f func()) {
			if fresh {
				r.free = nil
			}
			env.Clock = at
			f()
		}
		propose := func(client int64) {
			r.HandleMessage(consensus.ProcessID(10+client), ClientPropose{Client: client, Seq: 1, Cmd: op(client)})
		}
		p2b := func(from consensus.ProcessID, slot int64, v consensus.Value) {
			r.HandleMessage(from, SlotMsg{Slot: slot, Inner: modpaxos.P2b{Bal: preparedBallot, Val: v}})
		}
		// late sends each retired slot a peer's P2b and a higher P1a, fires
		// every timer of its block, and holds that only the P1a is answered,
		// from the decision log.
		late := func(at time.Duration, slots ...int64) {
			t.Helper()
			mark, armings, cancels := len(env.Outbox), maps.Clone(env.Armings), len(env.Canceled)
			var want []consensustest.Sent
			event(at, func() {
				for _, slot := range slots {
					v := r.decisions[slot]
					p2b(2, slot, v)
					r.HandleMessage(2, SlotMsg{Slot: slot, Inner: modpaxos.P1a{Bal: higher}})
					want = append(want, consensustest.Sent{To: 2, Msg: SlotMsg{Slot: slot, Inner: modpaxos.Decided{Val: v}}})
					for id := range int64(timersPerSlot) {
						outer := consensus.TimerID((slot+1)*timersPerSlot + id)
						if _, armed := env.Timers[outer]; armed {
							t.Errorf("slot %d retired with timer %d armed", slot, outer)
						}
						r.HandleTimer(outer)
					}
				}
			})
			if got := env.Outbox[mark:]; !slices.Equal(got, want) {
				t.Errorf("retired slots %v were sent a P2b, a P1a and their timers; the replica sent %v, want %v", slots, got, want)
			}
			if !maps.Equal(env.Armings, armings) || len(env.Canceled) != cancels {
				t.Errorf("retired slots %v armed or cancelled a timer", slots)
			}
		}

		event(0, func() { propose(1) })                                // lingers
		event(time.Millisecond, func() { r.HandleTimer(lingerTimer) }) // slot 0
		event(time.Millisecond, func() { propose(2) })                 // waits for slot 0
		s0 := r.slots[0]
		event(2*time.Millisecond, func() { p2b(1, 0, batch(1)) }) // slot 0 decides, slot 1 opens
		s1 := r.slots[1]
		check(s1 != nil && s1 != s0, "slot 1 opened on the instance slot 0 retired from inside its Decide")
		check(slices.Equal(r.free, []*slotState{s0}), "after its event slot 0's instance is not the one free: %v", r.free)
		late(2*time.Millisecond, 0)

		event(2*time.Millisecond, func() { propose(3) })
		event(3*time.Millisecond, func() { p2b(1, 1, batch(2)) }) // slot 1 decides, slot 2 opens
		check(r.slots[2] == s0, "slot 2 did not take slot 0's retired instance")
		late(3*time.Millisecond, 0, 1)

		event(4*time.Millisecond, func() { p2b(1, 2, batch(3)) }) // slot 2 decides, nothing queued
		event(4*time.Millisecond, func() { propose(4) })          // lingers
		var s3 *slotState
		if !fresh {
			s3 = r.free[len(r.free)-1]
		}
		mark := len(env.Outbox)
		event(5*time.Millisecond, func() {
			r.HandleMessage(1, SlotMsg{Slot: 3, Inner: modpaxos.Decided{Val: "set z 9"}})
		})
		check(r.slots[4] != nil && r.slots[4] != s3, "slot 4 opened on the instance slot 3 retired from inside its Decide")
		check(slices.Contains(r.free, s3), "slot 3's instance is not free after its event")
		for _, s := range env.Outbox[mark:] {
			if m, ok := s.Msg.(SlotMsg); ok && (m.Slot == 3 && m.Type() != "rsm-p1a" || m.Type() == "rsm-decided") {
				t.Errorf("fresh %v: slot 3 opened and retired in one event, and the replica sent %v to %d", fresh, m, s.To)
			}
		}
		late(5*time.Millisecond, 3)
		event(6*time.Millisecond, func() { p2b(1, 4, batch(4)) })
		if r.Applied() != 5 || len(r.slots) != 0 {
			t.Fatalf("fresh %v: applied %d with %d live instances, want 5 and 0", fresh, r.Applied(), len(r.slots))
		}
		return r, env
	}

	warm, warmEnv := run(false)
	fresh, freshEnv := run(true)
	for _, f := range []struct {
		what      string
		got, want any
	}{
		{"sends", warmEnv.Outbox, freshEnv.Outbox},
		{"timers", warmEnv.Timers, freshEnv.Timers},
		{"armings", warmEnv.Armings, freshEnv.Armings},
		{"cancels", warmEnv.Canceled, freshEnv.Canceled},
		{"applied log", warm.kv.Log(), fresh.kv.Log()},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Errorf("with recycled instances the leader's %s are %v, with fresh ones %v", f.what, f.got, f.want)
		}
	}
}
