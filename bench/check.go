package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/rsm"
)

// The history checker verifies a run from what the replicas applied and what
// the clients were told, nothing else:
//
//  1. every acknowledged (client, seq) was applied by some replica — no
//     acknowledged write is lost;
//  2. no (client, seq) was applied at two log positions — exactly-once;
//  3. any (slot, idx) applied by two replicas holds the same command —
//     agreement;
//  4. each replica incarnation applied in strictly increasing (slot, idx)
//     order.

// applyRec is one applied command as a replica's recorder saw it.
type applyRec struct {
	Slot   int64
	Idx    int32
	Client int64
	Seq    uint64
}

// recorder is the rsm.EntryApplier installed in one replica incarnation. It
// is written only by that replica's event loop and read only after the
// substrate has stopped, so it needs no lock.
type recorder struct {
	replica int
	entries []applyRec
	// onApply, when set, observes every applied slot (catch-up timing).
	onApply func(replica int, slot int64)
}

var (
	_ rsm.Applier      = (*recorder)(nil)
	_ rsm.EntryApplier = (*recorder)(nil)
)

// Apply implements rsm.Applier; rsm prefers ApplyEntry, so this only sees
// replicas built without batch structure.
func (r *recorder) Apply(slot int64, _ consensus.Value) {
	r.entries = append(r.entries, applyRec{Slot: slot})
}

// ApplyEntry implements rsm.EntryApplier.
func (r *recorder) ApplyEntry(slot int64, idx int, cmd rsm.Command) {
	r.entries = append(r.entries, applyRec{Slot: slot, Idx: int32(idx), Client: cmd.Client, Seq: cmd.Seq})
	if r.onApply != nil {
		r.onApply(r.replica, slot)
	}
}

// history hands out one recorder per replica incarnation: a restarted replica
// replays its surviving log into a fresh state machine, so reusing the
// recorder would double-count.
type history struct {
	mu      sync.Mutex
	capHint int
	onApply func(replica int, slot int64)
	logs    []*recorder
}

// newApplier is the rsm.Config.NewApplier hook.
func (h *history) newApplier(id consensus.ProcessID) rsm.Applier {
	r := &recorder{replica: int(id), entries: make([]applyRec, 0, h.capHint), onApply: h.onApply}
	h.mu.Lock()
	h.logs = append(h.logs, r)
	h.mu.Unlock()
	return r
}

// maxFindings bounds the findings kept verbatim; the rest are only counted.
const maxFindings = 20

// findings collects checker output.
type findings struct {
	count int
	first []string
}

func (f *findings) addf(format string, args ...any) {
	f.count++
	if len(f.first) < maxFindings {
		f.first = append(f.first, fmt.Sprintf(format, args...))
	}
}

type logPos struct {
	Slot int64
	Idx  int32
}

// checkHistory runs the four checks over the applied logs and the acked
// operations. slotOf, when non-nil, is filled with every applied operation's
// slot (the trace join key).
func checkHistory(acked []opID, logs []*recorder, slotOf map[opID]int64) findings {
	var f findings
	total := 0
	for _, l := range logs {
		total += len(l.entries)
	}
	byPos := make(map[logPos]applyRec, total/2+1)
	firstAt := make(map[logPos]int)
	seqPos := make(map[opID]logPos, total/2+1)
	for _, l := range logs {
		for i, e := range l.entries {
			if i > 0 {
				p := l.entries[i-1]
				if e.Slot < p.Slot || (e.Slot == p.Slot && e.Idx <= p.Idx) {
					f.addf("apply-order: replica %d applied slot %d idx %d after slot %d idx %d",
						l.replica, e.Slot, e.Idx, p.Slot, p.Idx)
				}
			}
			pos := logPos{e.Slot, e.Idx}
			if prev, ok := byPos[pos]; ok {
				if prev != e {
					f.addf("agreement: slot %d idx %d is %+v at replica %d but %+v at replica %d",
						e.Slot, e.Idx, e, l.replica, prev, firstAt[pos])
				}
			} else {
				byPos[pos] = e
				firstAt[pos] = l.replica
			}
			if e.Seq == 0 {
				continue
			}
			id := opID{e.Client, e.Seq}
			if prev, ok := seqPos[id]; ok {
				if prev != pos {
					f.addf("exactly-once: client %d seq %d applied at slot %d idx %d and at slot %d idx %d",
						e.Client, e.Seq, prev.Slot, prev.Idx, e.Slot, e.Idx)
				}
			} else {
				seqPos[id] = pos
				if slotOf != nil {
					slotOf[id] = e.Slot
				}
			}
		}
	}
	for _, id := range acked {
		if _, ok := seqPos[id]; !ok {
			f.addf("lost-ack: client %d seq %d was acknowledged but never applied at any replica", id.Client, id.Seq)
		}
	}
	return f
}

// appliedShape reports how many commands were applied over how many slots,
// from the longest incarnation log (the replica that saw the most).
func appliedShape(logs []*recorder) (cmds, slots int64) {
	var best *recorder
	for _, l := range logs {
		if best == nil || len(l.entries) > len(best.entries) {
			best = l
		}
	}
	if best == nil {
		return 0, 0
	}
	last := int64(-1)
	for _, e := range best.entries {
		if e.Slot != last {
			slots++
			last = e.Slot
		}
	}
	return int64(len(best.entries)), slots
}

// catchupWatch times, from the recorders alone, how long a restarted replica
// takes to apply up to where the rest of the group is: armed at the restart,
// it resolves at the first slot the replica applies that no other replica is
// ahead of.
type catchupWatch struct {
	now       func() time.Duration
	replica   int
	maxOthers int64
	armedAt   time.Duration
	armed     bool
	took      time.Duration
	resolved  bool
}

func (w *catchupWatch) arm() {
	w.armed = true
	w.armedAt = w.now()
}

func (w *catchupWatch) onApply(replica int, slot int64) {
	if replica != w.replica {
		if slot > w.maxOthers {
			w.maxOthers = slot
		}
		return
	}
	if w.armed && !w.resolved && slot >= w.maxOthers {
		w.resolved = true
		w.took = w.now() - w.armedAt
	}
}
