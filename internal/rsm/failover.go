package rsm

// Leader failover. The distinguished proposer is no longer hard-wired to
// replica 0: leadership is numbered by an epoch, and the leader of epoch e
// is replica e mod n. Epoch 0 therefore keeps the PR 7 behavior (replica 0
// leads), and with Config.FailoverTimeout zero the machinery is inert — no
// heartbeats, no timers, byte-identical schedules to the static-leader
// code.
//
// With failover enabled, the leader broadcasts a Beat every quarter of
// FailoverTimeout as a liveness signal, an epoch announcement, and a
// maxSeen gossip. Followers treat leader silence as a crash: each follower
// waits FailoverTimeout times its distance to the next epoch it owns (so
// candidates are staggered and the closest one moves first), then adopts
// that epoch and takes over. Takeover reuses the recovery machinery the
// slot instances already have: the new leader opens an instance for every
// undecided slot below the frontier, and modpaxos's phase 1 either learns
// a batch the crashed leader got accepted (re-proposing it in phase 2) or
// closes the slot as NoOp, in which case the clients' retries re-propose
// through the new leader and session dedup keeps them exactly-once.
//
// Two leaders can briefly coexist (a deposed leader that has not yet heard
// the higher epoch); that is safe — slots are still decided by Paxos — and
// resolves as soon as any message carries the higher epoch: Redirects are
// epoch-stamped so clients ignore stale ones, and a Beat from a stale
// epoch is answered with the current one to depose the sender.

import (
	"time"

	"repro/internal/core/consensus"
	"repro/internal/leader"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Beat is the leader's periodic liveness broadcast: it announces the
// leader's epoch (stale leaders adopt it and step down) and its maxSeen
// frontier (followers learn how far the log extends without waiting for
// slot traffic).
type Beat struct {
	Epoch   int64
	MaxSeen int64
}

// Type implements consensus.Message.
func (Beat) Type() string { return "rsm-beat" }

// failoverOn reports whether epoch-based failover is enabled; when off the
// leader is statically replica 0 and no failover state exists.
func (r *Replica) failoverOn() bool { return r.cfg.FailoverTimeout > 0 }

// leaderID returns the current leader: the owner of the highest adopted
// epoch, or the static distinguished proposer when failover is off.
func (r *Replica) leaderID() consensus.ProcessID {
	if !r.failoverOn() || r.n == 0 {
		return Leader()
	}
	return consensus.ProcessID(r.epoch % int64(r.n))
}

// initFailover restores the persisted epoch and starts the replica in its
// role: the leader begins beating, followers arm the failover timer.
func (r *Replica) initFailover() {
	if !r.failoverOn() {
		return
	}
	var e int64
	if ok, err := r.env.Store().Get(storage.KeyRSMEpoch, &e); err == nil && ok && e > r.epoch {
		r.epoch = e
	}
	r.lastLeaderSeen = r.env.Now()
	if r.id == r.leaderID() {
		r.becomeLeader()
	} else {
		r.armFailover()
	}
}

// promotionDistance is how many epochs ahead this replica's next own epoch
// lies: 1 for the follower right after the current leader, up to n for the
// leader itself. It staggers self-promotion so the nearest candidate acts
// one FailoverTimeout before the next.
func (r *Replica) promotionDistance() int64 {
	n := int64(r.n)
	d := ((int64(r.id)-r.epoch)%n + n) % n
	if d == 0 {
		d = n
	}
	return d
}

// failoverWindow is how long this follower tolerates leader silence before
// promoting itself.
func (r *Replica) failoverWindow() time.Duration {
	return time.Duration(r.promotionDistance()) * r.cfg.FailoverTimeout
}

// armFailover starts the silence watchdog; no-op for the leader or when
// already armed (the deadline check on expiry extends a refreshed window).
func (r *Replica) armFailover() {
	if !r.failoverOn() || r.failoverArmed || r.id == r.leaderID() {
		return
	}
	r.failoverArmed = true
	r.env.SetTimer(failoverTimer, r.failoverWindow())
}

// noteLeaderAlive records a sign of life from the current leader, pushing
// the failover deadline out.
func (r *Replica) noteLeaderAlive() {
	r.lastLeaderSeen = r.env.Now()
	r.armFailover()
}

// onFailoverTimer fires when the silence window may have elapsed: if the
// leader has been heard since arming, re-arm for the remainder; otherwise
// adopt the next epoch this replica owns and take over.
func (r *Replica) onFailoverTimer() {
	r.failoverArmed = false
	if !r.failoverOn() || r.id == r.leaderID() {
		return
	}
	deadline := r.lastLeaderSeen + r.failoverWindow()
	if now := r.env.Now(); now < deadline {
		r.failoverArmed = true
		r.env.SetTimer(failoverTimer, deadline-now)
		return
	}
	r.adoptEpoch(r.epoch + r.promotionDistance())
}

// adoptEpoch moves to a higher epoch, persisting it and switching this
// replica's role to match the new epoch's owner.
func (r *Replica) adoptEpoch(e int64) {
	if !r.failoverOn() || e <= r.epoch {
		return
	}
	wasLeader := r.id == r.leaderID()
	r.epoch = e
	if err := r.env.Store().Put(storage.KeyRSMEpoch, e); err != nil {
		r.env.Logf("rsm: persist epoch: %v", err)
	}
	r.env.Emit("rsm-epoch", e)
	if r.id == r.leaderID() {
		r.becomeLeader()
		return
	}
	if wasLeader {
		// Deposed: stop beating and hand queued commands to the new
		// leader. In-flight slots keep running — their decisions either
		// ack waiters as usual or re-queue via the stolen-slot path, and
		// tryFlush forwards the re-queued batch instead of proposing.
		r.env.CancelTimer(beatTimer)
		r.forwardQueue()
	}
	r.lastLeaderSeen = r.env.Now()
	r.armFailover()
}

// becomeLeader takes over proposing: bump the slot counter past everything
// known, drive every undecided slot below the frontier to a decision (the
// in-flight-batch re-proposal path), and start heartbeating.
func (r *Replica) becomeLeader() {
	r.env.CancelTimer(failoverTimer)
	r.failoverArmed = false
	if r.nextSlot <= r.maxSeen {
		// Never reuse a slot a previous leader may have filled.
		r.nextSlot = r.maxSeen + 1
		if err := r.env.Store().Put(storage.KeyRSMNext, r.nextSlot); err != nil {
			r.env.Logf("rsm: persist next: %v", err)
		}
	}
	repairing := false
	for slot := r.applied; slot < r.nextSlot; slot++ {
		if _, ok := r.decisions[slot]; !ok {
			// Phase 1 of the instance's recovery ballot reports any batch
			// the crashed leader got accepted and phase 2 re-proposes it;
			// otherwise the slot closes as NoOp and client retries
			// re-propose the commands through us.
			r.claimSlot(r.instance(slot, NoOp))
			repairing = true
		}
	}
	if repairing && !r.repairing {
		r.repairing = true
		r.repairTarget = r.nextSlot
		// The recovery window opens when the old leader was last heard,
		// not at promotion: the silence window is part of the downtime.
		r.failoverFrom = r.lastLeaderSeen
		r.replicaSpan(trace.SpanRSMFailover, true, r.epoch)
	}
	r.sendBeat()
	r.tryFlush(false)
}

// finishRepair closes the failover span once the promoted leader has
// applied every slot it set out to repair.
func (r *Replica) finishRepair() {
	if !r.repairing || r.applied < r.repairTarget {
		return
	}
	r.repairing = false
	if d := r.env.Now() - r.failoverFrom; d >= 0 {
		consensus.ObserveDuration(r.env, trace.HistFailoverLatency, d)
	}
	r.replicaSpan(trace.SpanRSMFailover, false, r.epoch)
}

// slotClaimer is the modpaxos hook that lets a failed-over leader open a
// slot with a ballot it owns instead of waiting out the crashed prepared
// owner's session timer.
type slotClaimer interface{ Claim(session int64) }

// claimSlot gives a post-failover leader's instance a dominating ballot so
// its proposals move as fast as the prepared epoch-0 path (one extra
// phase-1 round trip, no σ wait, no NoOp duels with follower recovery).
// Epoch 0 keeps the untouched prepared fast path.
func (r *Replica) claimSlot(st *slotState) {
	if !r.failoverOn() || r.epoch == 0 || r.id != r.leaderID() {
		return
	}
	if c, ok := st.proc.(slotClaimer); ok {
		// Session e+1 dominates every ballot epochs < e could have used
		// (epoch 0 proposed in the prepared session 1).
		c.Claim(r.epoch + 1)
	}
}

// sendBeat broadcasts the leader's liveness/epoch/frontier announcement and
// arms the next: four beats per FailoverTimeout, so a follower must miss
// several in a row before it suspects the leader.
func (r *Replica) sendBeat() {
	r.env.Broadcast(Beat{Epoch: r.epoch, MaxSeen: r.maxSeen})
	r.env.SetTimer(beatTimer, max(r.cfg.FailoverTimeout/4, 1))
}

// onBeatTimer re-broadcasts while this replica still leads.
func (r *Replica) onBeatTimer() {
	if !r.failoverOn() || r.id != r.leaderID() {
		return
	}
	r.sendBeat()
}

func (r *Replica) onBeat(from consensus.ProcessID, b Beat) {
	if !r.failoverOn() {
		return
	}
	if b.MaxSeen > r.maxSeen {
		r.maxSeen = b.MaxSeen
		r.checkCatchup()
	}
	switch {
	case b.Epoch > r.epoch:
		r.adoptEpoch(b.Epoch)
	case b.Epoch < r.epoch && from != r.id:
		// A stale leader (typically restarted after its crash): depose it
		// by answering with the current epoch.
		r.env.Send(from, Beat{Epoch: r.epoch, MaxSeen: r.maxSeen})
	}
}

// onAnnounce wires the Ω leader oracle in: an announcement for a different
// replica is treated as an epoch hint, jumping to the smallest epoch that
// replica owns. The oracle is advisory — silence-triggered promotion works
// without it — but when installed it re-aims the group in one message
// instead of a staggered timeout cascade.
func (r *Replica) onAnnounce(a leader.Announce) {
	if !r.failoverOn() {
		return
	}
	want := a.Leader
	if want == r.leaderID() || int64(want) >= int64(r.n) || want < 0 {
		return
	}
	n := int64(r.n)
	d := ((int64(want)-r.epoch)%n + n) % n
	if d == 0 {
		d = n
	}
	r.adoptEpoch(r.epoch + d)
}

// forwardQueue hands a deposed leader's queued commands to the current
// leader and redirects their waiters. The forwarded ClientPropose re-enters
// the session-dedup path there, so a command stays exactly-once even when
// the client's own retry races the forward.
func (r *Replica) forwardQueue() {
	lead := r.leaderID()
	if lead == r.id || len(r.queue) == 0 {
		return
	}
	for _, qc := range r.queue {
		r.env.Send(lead, ClientPropose{Client: qc.cmd.Client, Seq: qc.cmd.Seq, Cmd: qc.cmd.Op})
		if qc.cmd.Seq != 0 {
			delete(r.tracked, sessionKey{qc.cmd.Client, qc.cmd.Seq})
		}
		for _, w := range qc.waiters {
			r.env.Send(w, Redirect{Leader: lead, Epoch: r.epoch})
		}
	}
	r.queue = nil
}

// replicaSpan emits a replica-level span (failover recovery windows).
func (r *Replica) replicaSpan(kind string, begin bool, value int64) {
	if !r.spansOn() {
		return
	}
	if sink, ok := r.env.(consensus.SpanSink); ok {
		sink.Span(kind, begin, value)
	}
}

// Epoch returns the highest adopted leadership epoch (test observability).
func (r *Replica) Epoch() int64 { return r.epoch }

// IsLeader reports whether this replica currently believes it leads (test
// observability).
func (r *Replica) IsLeader() bool { return r.id == r.leaderID() }
