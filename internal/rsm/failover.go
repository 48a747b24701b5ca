package rsm

// Leader failover. Leadership is numbered by an epoch, and the leader of
// epoch e is replica e mod n, so epoch 0 is the static replica-0 leader.
// With Config.FailoverTimeout zero the machinery is inert — no heartbeats,
// no timers, byte-identical schedules to the static-leader code.
//
// With failover on, the leader broadcasts a Beat every σ/4 (σ is
// FailoverTimeout, the silence bound): liveness, its epoch, its maxSeen
// frontier and the client processes that propose to it. Every follower that
// hears nothing from the leader for σ adopts the next epoch it owns and
// takes over, so followers whose silence runs out together claim at once.
// The session rule settles the race: the higher epoch's Claim(e+1) ballots
// dominate, and the lower claimer is deposed by the first Beat it hears. The
// log is back one σ plus the repair round trips after a crash, however many
// candidates in a row are down.
//
// Takeover reuses the recovery machinery the slot instances already have:
// the new leader opens an instance for every undecided slot below the
// frontier, and modpaxos's phase 1 either learns a batch the crashed leader
// got accepted (re-proposing it in phase 2) or closes the slot as NoOp, in
// which case the clients' retries re-propose through the new leader and
// session dedup keeps them exactly-once. It also sends each client process
// the Beats named one epoch-stamped Redirect, so those clients resend at
// once instead of walking the ring; rotation stays the fallback for a client
// the old leader never saw.
//
// Two leaders can briefly coexist (a deposed leader that has not yet heard
// the higher epoch); that is safe — slots are still decided by Paxos — and
// resolves as soon as any message carries the higher epoch: Redirects are
// epoch-stamped so clients ignore stale ones, and a Beat from a stale
// epoch is answered with the current one to depose the sender.

import (
	"slices"

	"repro/internal/core/consensus"
	"repro/internal/leader"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Beat is the leader's periodic liveness broadcast: it announces the
// leader's epoch (stale leaders adopt it and step down), its maxSeen
// frontier (followers learn how far the log extends without waiting for
// slot traffic) and the client processes that propose to it (whoever
// promotes next redirects them).
type Beat struct {
	Epoch   int64
	MaxSeen int64
	Clients []consensus.ProcessID
}

// maxClientProcs bounds the client processes a leader remembers and its
// Beats carry. A client beyond it finds a promoted leader by rotation.
const maxClientProcs = 64

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

// nextEpochOf is the lowest epoch above the current one that replica p
// owns.
func (r *Replica) nextEpochOf(p consensus.ProcessID) int64 {
	n := int64(r.n)
	d := ((int64(p)-r.epoch)%n + n) % n
	if d == 0 {
		d = n
	}
	return r.epoch + d
}

// armFailover starts the silence watchdog; no-op for the leader or when
// already armed (the deadline check on expiry extends a refreshed window).
func (r *Replica) armFailover() {
	if !r.failoverOn() || r.failoverArmed || r.id == r.leaderID() {
		return
	}
	r.failoverArmed = true
	r.env.SetTimer(failoverTimer, r.cfg.FailoverTimeout)
}

// noteLeaderAlive records a sign of life from the current leader, pushing
// the failover deadline out.
func (r *Replica) noteLeaderAlive() {
	r.lastLeaderSeen = r.env.Now()
	r.armFailover()
}

// onFailoverTimer fires when the silence bound may have elapsed: if the
// leader has been heard since arming, re-arm for the remainder; otherwise
// adopt the next epoch this replica owns and take over. Every follower runs
// the same bound, so the survivors claim together and the highest epoch
// wins.
func (r *Replica) onFailoverTimer() {
	r.failoverArmed = false
	if !r.failoverOn() || r.id == r.leaderID() {
		return
	}
	deadline := r.lastLeaderSeen + r.cfg.FailoverTimeout
	if now := r.env.Now(); now < deadline {
		r.failoverArmed = true
		r.env.SetTimer(failoverTimer, deadline-now)
		return
	}
	r.adoptEpoch(r.nextEpochOf(r.id))
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
// in-flight-batch re-proposal path), start heartbeating, and tell the
// client processes the old leader's Beats named where to go.
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
		r.replicaSpan(trace.SpanRSMFailover, true, r.epoch)
	}
	r.sendBeat()
	for _, c := range r.clientProcs {
		r.env.Send(c, Redirect{Leader: r.id, Epoch: r.epoch})
	}
	r.tryFlush(false)
}

// finishRepair closes the failover span once the promoted leader has
// applied every slot it set out to repair.
func (r *Replica) finishRepair() {
	if !r.repairing || r.applied < r.repairTarget {
		return
	}
	r.repairing = false
	r.replicaSpan(trace.SpanRSMFailover, false, r.epoch)
}

// claimSlot gives a post-failover leader's instance a dominating ballot so
// its proposals move as fast as the prepared epoch-0 path (one extra
// phase-1 round trip, no σ wait, no NoOp duels with follower recovery).
// Epoch 0 keeps the untouched prepared fast path.
func (r *Replica) claimSlot(st *slotState) {
	if !r.failoverOn() || r.epoch == 0 || r.id != r.leaderID() {
		return
	}
	// Session e+1 dominates every ballot epochs < e could have used (epoch 0
	// proposed in the prepared session 1); the claim opens it at once instead
	// of waiting out the crashed prepared owner's session timer.
	st.proc.Claim(r.epoch + 1)
}

// beat is this replica's view as a Beat.
func (r *Replica) beat() Beat {
	return Beat{Epoch: r.epoch, MaxSeen: r.maxSeen, Clients: r.clientProcs}
}

// sendBeat sends the leader's liveness/epoch/frontier announcement to every
// peer and arms the next: four beats per FailoverTimeout, so a follower must
// miss several in a row before it suspects the leader.
func (r *Replica) sendBeat() {
	r.sendPeers(r.beat())
	r.env.SetTimer(beatTimer, max(r.cfg.FailoverTimeout/4, 1))
}

// noteClient adds a non-replica process that proposed to this leader to the
// set its Beats carry. The set is replaced, never written in place, because
// Beats already sent share it.
func (r *Replica) noteClient(p consensus.ProcessID) {
	if int(p) < r.n || len(r.clientProcs) >= maxClientProcs || slices.Contains(r.clientProcs, p) {
		return
	}
	r.clientProcs = append(slices.Clip(r.clientProcs), p)
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
	if b.MaxSeen > r.maxSeen && b.MaxSeen < maxSlots {
		r.maxSeen = b.MaxSeen
		r.checkCatchup()
	}
	if b.Epoch >= r.epoch {
		r.clientProcs = b.Clients[:min(len(b.Clients), maxClientProcs)]
	}
	switch {
	case b.Epoch > r.epoch:
		r.adoptEpoch(b.Epoch)
	case b.Epoch < r.epoch:
		// A stale leader (typically restarted after its crash): depose it
		// by answering with the current epoch.
		r.env.Send(from, r.beat())
	}
}

// onAnnounce wires the Ω leader oracle in: an announcement for a different
// replica is treated as an epoch hint, jumping to the smallest epoch that
// replica owns. The oracle is advisory — silence-triggered promotion works
// without it — but when installed it re-aims the group in one message
// instead of one silence bound.
func (r *Replica) onAnnounce(a leader.Announce) {
	if !r.failoverOn() {
		return
	}
	want := a.Leader
	if want == r.leaderID() || int64(want) >= int64(r.n) || want < 0 {
		return
	}
	r.adoptEpoch(r.nextEpochOf(want))
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
