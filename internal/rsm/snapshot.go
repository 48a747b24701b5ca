package rsm

// Log compaction. Without it the decision log — in memory and as
// rsmlog/<slot> records in stable storage — grows forever, and a restarted
// replica replays history from slot 0. With Config.SnapshotEvery set, each
// replica independently snapshots its applier image plus the complete
// session table every SnapshotEvery applied slots, then truncates
// everything below the snapshot horizon: decision records, retired
// instances' slot<N>/ namespaces, and the spilled rsm-sess- records the
// snapshot folded in. Restart restores the snapshot and replays only the
// log above the horizon; a replica that fell behind the horizon catches up
// via Learn, which ships the snapshot instead of slot records the peer no
// longer has.

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"

	"repro/internal/core/consensus"
	"repro/internal/storage"
)

// Snapshot is the durable compaction record: everything below Applied,
// folded. Sessions is the complete dedup table at the horizon (in-memory
// entries plus every spilled rsm-sess- record), so installing a snapshot
// preserves exactly-once semantics for clients whose commands were
// compacted away.
type Snapshot struct {
	// Applied is the horizon: the number of contiguous slots folded in.
	Applied int64
	// Sessions is the full client dedup table at the horizon.
	Sessions map[int64]Session
	// State is the applier's image (HasState false when the applier does
	// not implement Snapshotter — replay semantics then restart fresh at
	// the horizon, and the applier is not told of the jump).
	State    []byte
	HasState bool
}

// SnapshotMsg ships a snapshot to a replica whose Learn request fell below
// the sender's compaction horizon.
type SnapshotMsg struct {
	Snap Snapshot
}

// Type implements consensus.Message.
func (SnapshotMsg) Type() string { return "rsm-snapshot" }

// Snapshotter is optionally implemented by Appliers that can serialize
// their state; the built-in KVStore implements it. Appliers without it
// still benefit from log truncation, but a snapshot install cannot restore
// their pre-horizon state.
type Snapshotter interface {
	Snapshot() ([]byte, error)
	Restore(data []byte) error
}

// maybeSnapshot writes a snapshot once enough new slots have applied since
// the last horizon.
func (r *Replica) maybeSnapshot() {
	if r.cfg.SnapshotEvery <= 0 || r.applied < r.snapBase+r.cfg.SnapshotEvery {
		return
	}
	r.writeSnapshot()
}

// writeSnapshot folds the current state into a Snapshot, persists it, and
// truncates everything below the new horizon. The record is encoded
// straight from the live session table in its maintained client order; the
// table is copied only when spilled records must be folded into it.
func (r *Replica) writeSnapshot() {
	keys, err := r.env.Store().Keys()
	if err != nil {
		r.env.Logf("rsm: snapshot: list keys: %v", err)
		return
	}
	snap, clients := Snapshot{Applied: r.applied, Sessions: r.sessions}, r.clients
	// Fold the spilled session records in; they are deleted below once the
	// snapshot is durable.
	var spilled []string
	folded := false
	for _, k := range keys {
		if !strings.HasPrefix(k, sessKeyPrefix) {
			continue
		}
		spilled = append(spilled, k)
		client, err := strconv.ParseInt(k[len(sessKeyPrefix):], 10, 64)
		if err != nil {
			continue
		}
		if _, ok := snap.Sessions[client]; ok {
			continue // the in-memory entry is at least as new
		}
		var s Session
		if ok, err := r.env.Store().Get(k, &s); err == nil && ok {
			if !folded {
				snap.Sessions, folded = maps.Clone(r.sessions), true
			}
			snap.Sessions[client] = s
		}
	}
	if folded {
		clients = slices.Sorted(maps.Keys(snap.Sessions))
	}
	if sn, ok := r.applier.(Snapshotter); ok {
		r.mu.Lock()
		img, err := sn.Snapshot()
		r.mu.Unlock()
		if err != nil {
			r.env.Logf("rsm: snapshot applier: %v", err)
			return
		}
		snap.State, snap.HasState = img, true
	}
	if err := r.persistSnapshot(snap, clients); err != nil {
		r.env.Logf("rsm: persist snapshot: %v", err)
		return
	}
	// The snapshot now owns everything below the horizon.
	for _, k := range spilled {
		if err := r.env.Store().Delete(k); err != nil {
			r.env.Logf("rsm: snapshot: drop %s: %v", k, err)
		}
	}
	r.truncateBelow(snap.Applied, keys)
	r.snapBase = snap.Applied
	r.env.Emit("rsm-snapshot", snap.Applied)
}

// persistSnapshot writes the durable compaction record: the snapshot in the
// codec rsm already owns and fuzzes — the `tag | body` that
// consensus.AppendMessage gives the SnapshotMsg that ships it — held as a
// string, one immutable value that MemStore keeps as it is and FileStore
// writes as one. clients is snap.Sessions' keys in ascending order.
func (r *Replica) persistSnapshot(snap Snapshot, clients []int64) error {
	r.snapBuf = appendSnapshotOrdered(append(r.snapBuf[:0], tagSnapshotMsg), snap, clients)
	return r.env.Store().Put(storage.KeyRSMSnapshot, string(r.snapBuf))
}

// loadSnapshot reads the durable compaction record back.
func loadSnapshot(st storage.Store) (Snapshot, bool) {
	var rec string
	if ok, err := st.Get(storage.KeyRSMSnapshot, &rec); err != nil || !ok {
		return Snapshot{}, false
	}
	m, err := consensus.DecodeMessage([]byte(rec))
	msg, ok := m.(SnapshotMsg)
	return msg.Snap, err == nil && ok
}

// truncateBelow drops decision records and retired instances' namespaced
// protocol state for every slot below the horizon, in memory and in the
// store. keys is a Keys() listing taken by the caller.
func (r *Replica) truncateBelow(horizon int64, keys []string) {
	for slot := range r.decisions {
		if slot < horizon {
			delete(r.decisions, slot)
			delete(r.decidedAt, slot)
		}
	}
	for _, k := range keys {
		if slot, ok := slotOfKey(k); ok && slot < horizon {
			if err := r.env.Store().Delete(k); err != nil {
				r.env.Logf("rsm: truncate %s: %v", k, err)
			}
		}
	}
}

// slotOfKey extracts the slot a store key belongs to: a decision record
// ("rsmlog/<slot>") or an instance namespace ("slot<N>/...").
func slotOfKey(k string) (int64, bool) {
	if strings.HasPrefix(k, slotKeyPrefix) {
		s, err := strconv.ParseInt(k[len(slotKeyPrefix):], 10, 64)
		return s, err == nil
	}
	if strings.HasPrefix(k, slotNamespace) {
		rest := k[len(slotNamespace):]
		if i := strings.IndexByte(rest, '/'); i > 0 {
			s, err := strconv.ParseInt(rest[:i], 10, 64)
			return s, err == nil
		}
	}
	return 0, false
}

// onSnapshot installs a shipped snapshot if it is ahead of this replica's
// apply frontier, then keeps learning from the sender above the horizon.
func (r *Replica) onSnapshot(from consensus.ProcessID, msg SnapshotMsg) {
	if msg.Snap.Applied <= r.applied {
		return
	}
	r.installSnapshot(msg.Snap)
	r.env.Send(from, Learn{From: r.applied})
}

// installSnapshot jumps the replica forward to the snapshot horizon:
// restore the applier image and session table, clear the spilled session
// records it replaces, retire and truncate everything below, and persist
// the snapshot locally so a restart resumes from the horizon.
func (r *Replica) installSnapshot(snap Snapshot) {
	if snap.HasState {
		if sn, ok := r.applier.(Snapshotter); ok {
			r.mu.Lock()
			err := sn.Restore(snap.State)
			r.mu.Unlock()
			if err != nil {
				r.env.Logf("rsm: install snapshot: %v", err)
				return
			}
		}
	}
	r.restoreSessions(snap.Sessions)
	keys, err := r.env.Store().Keys()
	if err != nil {
		r.env.Logf("rsm: install snapshot: list keys: %v", err)
		keys = nil
	}
	// Spilled records are superseded by the snapshot's folded table.
	for _, k := range keys {
		if strings.HasPrefix(k, sessKeyPrefix) {
			if err := r.env.Store().Delete(k); err != nil {
				r.env.Logf("rsm: install snapshot: drop %s: %v", k, err)
			}
		}
	}
	for len(r.sessions) > r.cfg.MaxSessions {
		r.evictOldestSession()
	}
	for slot := range r.slots {
		if slot < snap.Applied {
			r.retire(slot)
		}
	}
	r.queue = append(r.settleProposed(snap.Applied), r.queue...)
	r.applied = snap.Applied
	r.maxSeen = max(r.maxSeen, snap.Applied-1)
	if r.nextSlot < snap.Applied {
		r.nextSlot = snap.Applied
		if err := r.env.Store().Put(storage.KeyRSMNext, r.nextSlot); err != nil {
			r.env.Logf("rsm: persist next: %v", err)
		}
	}
	if err := r.persistSnapshot(snap, slices.Sorted(maps.Keys(snap.Sessions))); err != nil {
		r.env.Logf("rsm: persist snapshot: %v", err)
	}
	if keys != nil {
		r.truncateBelow(snap.Applied, keys)
	}
	r.snapBase = snap.Applied
	r.env.Emit("rsm-snapshot-install", snap.Applied)
	// Decisions already held above the horizon may now be contiguous, and
	// the pipeline window may have room again.
	r.applyReady()
	r.tryFlush(false)
}

// settleProposed closes the proposer's bookkeeping for its batches below a
// snapshot horizon it installs (a leader behind its followers' compaction,
// or a deposed one): pending slots, and slots decided above a gap. A command
// the restored session table shows applied is acknowledged; the others are
// returned in slot and batch order, waiters and session tracking intact.
func (r *Replica) settleProposed(horizon int64) []*queuedCmd {
	var requeue []*queuedCmd
	for _, slot := range slices.Sorted(maps.Keys(r.proposed)) {
		if slot >= horizon {
			break
		}
		for _, qc := range r.proposed[slot] {
			if r.ackApplied(qc.cmd, qc.waiters...) {
				delete(r.tracked, sessionKey{qc.cmd.Client, qc.cmd.Seq})
			} else {
				requeue = append(requeue, qc)
			}
		}
		if _, ok := r.pending[slot]; ok {
			delete(r.pending, slot)
			r.inFlight--
		}
		delete(r.proposed, slot)
		delete(r.proposedAt, slot)
	}
	return requeue
}

// kvImage is the KVStore's snapshot layout: the data in key order, so that
// equal stores snapshot to equal bytes on every replica, then the log. It is
// a body without a wire tag: no process sends one, and a peer's
// SnapshotMsg.State is read by the same bounded reader as the frame that
// carried it (consensus.ReadWhole).
type kvImage struct {
	data map[string]string
	log  []consensus.Value
}

// Snapshot implements Snapshotter.
func (s *KVStore) Snapshot() ([]byte, error) {
	return appendKVImage(nil, kvImage{data: s.data, log: s.log}), nil
}

// Restore implements Snapshotter. data may come from a peer: anything but
// one whole image is an error and leaves the store as it was.
func (s *KVStore) Restore(data []byte) error {
	img, err := consensus.ReadWhole(data, readKVImage)
	if err != nil {
		return fmt.Errorf("rsm: KVStore image: %w", err)
	}
	s.data, s.log = img.data, img.log
	return nil
}
