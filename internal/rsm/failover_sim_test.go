package rsm

// Fault-injection tests for the robustness layer: epoch-based leader
// failover (the followers claim on leader silence, the highest claimer leads
// and repairs the in-flight slots) and snapshot compaction (the log stays
// bounded and a replica behind the horizon catches up via snapshot install).
// The invariants are the same as the serving-path tests — exactly-once apply
// in slot order, identical logs — plus bounded storage and the catch-up
// latency histogram.

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/leader"
	"repro/internal/simnet"
	"repro/internal/storage"
	"repro/internal/trace"
)

// beatBlackout drops every non-Beat message to one replica during a global
// time window: an asymmetric partition that starves the replica of slot
// traffic while the leader's liveness signal still arrives. It leaves a
// deterministic decision gap for the failover repair path to close. Every
// Beat takes δ/2, so the followers hear the leader's last one at the same
// instant and their silence bounds run out together.
type beatBlackout struct {
	target   consensus.ProcessID
	from, to time.Duration
}

// Fate implements simnet.Policy.
func (b beatBlackout) Fate(tx simnet.Transmission, rng *rand.Rand) simnet.Fate {
	if _, isBeat := tx.Msg.(Beat); isBeat {
		return simnet.Fate{Delay: tx.Delta / 2}
	}
	if tx.To == b.target && tx.SentAt >= b.from && tx.SentAt < b.to {
		return simnet.Fate{Drop: true}
	}
	return simnet.Synchronous{}.Fate(tx, rng)
}

// assertClientOrder checks the client order snapshots encode in against the
// session table it shadows: it must track every first sight, eviction,
// restore and install.
func assertClientOrder(t *testing.T, r *Replica) {
	t.Helper()
	if want := slices.Sorted(maps.Keys(r.sessions)); !slices.Equal(r.clients, want) {
		t.Fatalf("replica %d keeps client order %v for sessions of %v", r.id, r.clients, want)
	}
}

// clientCount tallies one client's entries in an apply log.
func clientCount(entries []appliedCmd, client int64) int {
	n := 0
	for _, e := range entries {
		if e.Cmd.Client == client {
			n++
		}
	}
	return n
}

// TestSimFailoverLeaderCrash crashes the epoch-0 leader with a slot that
// replica 2 never saw decided (a blackout hid the slot traffic, Beats still
// arrived so maxSeen advanced). Both survivors hear the last Beat at once
// (the policy gives every Beat one fixed delay), run out the same silence
// bound and claim together, replica 1 epoch 1 and replica 2 epoch 2: the
// higher claim must win, so replica 2 leads and repairs the gap through the
// slot's recovery machinery, and replica 1 is deposed. The client's replayed
// session is served exactly-once. The old leader restarts later, is deposed
// by the higher epoch, and converges to the same log. Until every Beat took
// one fixed delay the simultaneous claim rested on the run's delay draws.
func TestSimFailoverLeaderCrash(t *testing.T) {
	const n = 3
	const client = 60
	const ops = 4
	delta := 10 * time.Millisecond
	eng, nw, logs := faultGroup(t, 31, simnet.Config{
		N: n, Delta: delta, TS: 22 * delta,
		Policy: beatBlackout{target: 2, from: 6 * delta, to: 20 * delta},
	}, Config{MaxBatch: 2, MaxInFlight: 2, FailoverTimeout: 8 * delta})
	nw.Start()

	// Seq 1 decides everywhere before the blackout; seq 2 decides on 0 and
	// 1 during it (replica 2 only learns the slot exists, via Beat gossip);
	// seq 3 is sent to a dead leader and lost.
	nw.Inject(3*delta, 1, Leader(), ClientPropose{Client: client, Seq: 1, Cmd: consensus.Value("op")})
	nw.Inject(13*delta/2, 1, Leader(), ClientPropose{Client: client, Seq: 2, Cmd: consensus.Value("op")})
	nw.CrashAt(0, 21*delta/2)
	nw.Inject(11*delta, 1, Leader(), ClientPropose{Client: client, Seq: 3, Cmd: consensus.Value("op")})

	// The client treats the silence as a failover trigger and replays the
	// whole session at both survivors; the follower redirects, the leader
	// serves, and dedup keeps it exactly-once.
	for k := 1; k <= ops; k++ {
		for to := consensus.ProcessID(1); to < n; to++ {
			nw.Inject(26*delta+time.Duration(k)*3*delta, 0, to,
				ClientPropose{Client: client, Seq: uint64(k), Cmd: consensus.Value("op")})
		}
	}
	// The deposed leader comes back late: it must adopt the higher epoch,
	// step down, and learn the slots it missed.
	nw.RestartAt(0, 45*delta)

	done := eng.RunUntil(func() bool {
		return clientCount(logs[1].snapshot(), client) >= ops &&
			clientCount(logs[2].snapshot(), client) >= ops
	}, 60*time.Second)
	if !done {
		t.Fatalf("survivors did not apply the session: %d/%d ops",
			clientCount(logs[1].snapshot(), client), clientCount(logs[2].snapshot(), client))
	}
	eng.Run(eng.Now() + 60*delta)

	r2 := nw.Node(2).Process().(*Replica)
	if !r2.IsLeader() || r2.Epoch() != 2 {
		t.Fatalf("replica 2, the highest claimer, should lead epoch 2, got leader=%v epoch=%d", r2.IsLeader(), r2.Epoch())
	}
	for id := consensus.ProcessID(0); id < 2; id++ {
		r := nw.Node(id).Process().(*Replica)
		if r.IsLeader() || r.Epoch() != 2 {
			t.Fatalf("replica %d was not deposed to epoch 2: leader=%v epoch=%d", id, r.IsLeader(), r.Epoch())
		}
	}
	for id, l := range logs {
		entries := l.snapshot()
		assertExactlyOnce(t, id, entries)
		countSession(t, id, entries, client, ops)
	}
	assertSameLog(t, logs)
}

// TestSimSnapshotCompactionBoundsLog runs a workload long enough for three
// snapshot horizons, with a session table too small for the client set (so
// sessions spill to storage and must be folded into snapshots). The slot
// records must stay bounded, a crash-restarted leader must resume from its
// snapshot, and stale duplicates of compacted commands must still dedup —
// their session state survives only inside the snapshot.
func TestSimSnapshotCompactionBoundsLog(t *testing.T) {
	const n = 3
	const nclients = 3
	const perClient = 4
	delta := 10 * time.Millisecond
	eng, nw, logs := faultGroup(t, 17, simnet.Config{
		N: n, Delta: delta, TS: 0,
	}, Config{MaxBatch: 1, SnapshotEvery: 4, MaxSessions: 2})
	nw.Start()

	for m := 0; m < nclients*perClient; m++ {
		nw.Inject(time.Duration(3+3*m)*delta, 1, Leader(), ClientPropose{
			Client: int64(70 + m%nclients), Seq: uint64(1 + m/nclients), Cmd: consensus.Value("op"),
		})
	}
	total := nclients * perClient
	done := eng.RunUntil(func() bool {
		for _, l := range logs {
			if len(l.snapshot()) < total {
				return false
			}
		}
		return true
	}, 60*time.Second)
	if !done {
		t.Fatalf("workload did not apply everywhere: %d/%d/%d entries",
			len(logs[0].snapshot()), len(logs[1].snapshot()), len(logs[2].snapshot()))
	}
	for id := 0; id < n; id++ {
		entries := logs[id].snapshot()
		assertExactlyOnce(t, id, entries)
		for c := 0; c < nclients; c++ {
			countSession(t, id, entries, int64(70+c), perClient)
		}
	}

	// Restart the leader from its snapshot, then replay stale duplicates of
	// the earliest (long-compacted) commands.
	nw.CrashAt(0, 44*delta)
	nw.RestartAt(0, 48*delta)
	for c := 0; c < nclients; c++ {
		nw.Inject(time.Duration(54+c)*delta, 1, Leader(),
			ClientPropose{Client: int64(70 + c), Seq: 1, Cmd: consensus.Value("op")})
	}
	eng.Run(eng.Now() + 60*delta)

	for id := 0; id < n; id++ {
		keys, err := nw.Node(consensus.ProcessID(id)).Store().Keys()
		if err != nil {
			t.Fatal(err)
		}
		slotRecords := 0
		for _, k := range keys {
			if len(k) >= len(storage.KeyRSMLogPrefix) && k[:len(storage.KeyRSMLogPrefix)] == storage.KeyRSMLogPrefix {
				slotRecords++
			}
		}
		if slotRecords > 2*4 {
			t.Fatalf("replica %d keeps %d slot records after compaction (every 4)", id, slotRecords)
		}
		if snap, ok := loadSnapshot(nw.Node(consensus.ProcessID(id)).Store()); !ok {
			t.Fatalf("replica %d has no readable snapshot record", id)
		} else if snap.Applied < 8 {
			t.Fatalf("replica %d snapshot horizon %d, want >= 8", id, snap.Applied)
		} else if len(snap.Sessions) != nclients {
			// MaxSessions is 2: the third session was spilled and folded in.
			t.Fatalf("replica %d snapshot holds %d sessions, want %d", id, len(snap.Sessions), nclients)
		} else {
			// The record is the wire form of the message that ships it.
			var rec string
			_, _ = nw.Node(consensus.ProcessID(id)).Store().Get(storage.KeyRSMSnapshot, &rec)
			if wire := consensus.AppendMessage(nil, SnapshotMsg{Snap: snap}); rec != string(wire) {
				t.Fatalf("replica %d snapshot record is %q, its SnapshotMsg encodes as %q", id, rec, wire)
			}
		}
		// Evictions here, a restore at replica 0.
		assertClientOrder(t, nw.Node(consensus.ProcessID(id)).Process().(*Replica))
	}
	r0 := nw.Node(0).Process().(*Replica)
	if r0.snapBase < 8 {
		t.Fatalf("restarted leader resumed with horizon %d, want >= 8", r0.snapBase)
	}
	// The restarted leader replays only above the horizon: the duplicates
	// must be deduplicated by the snapshot's folded session table, never
	// re-applied — here or on the survivors.
	for _, e := range logs[0].snapshot() {
		if e.Cmd.Seq == 1 {
			t.Fatalf("compacted command re-applied after restart: %+v", e)
		}
	}
	for id := 1; id < n; id++ {
		entries := logs[id].snapshot()
		assertExactlyOnce(t, id, entries)
		for c := 0; c < nclients; c++ {
			countSession(t, id, entries, int64(70+c), perClient)
		}
	}
}

// TestSimCatchUpViaSnapshot crashes a follower early, commits an entire
// workload past the compaction horizon (the survivors truncate every slot
// record the follower is missing), and restarts it. The follower can no
// longer replay the log — it must install a shipped snapshot, land exactly
// at the group's frontier, and record its catch-up latency.
func TestSimCatchUpViaSnapshot(t *testing.T) {
	const n = 3
	const client = 80
	const ops = 12
	delta := 10 * time.Millisecond
	collector := trace.NewCollector()
	collector.EnableHistograms()
	eng, nw, logs := faultGroup(t, 13, simnet.Config{
		N: n, Delta: delta, TS: 0, Collector: collector,
	}, Config{MaxBatch: 1, SnapshotEvery: 4})
	nw.Start()

	for k := 1; k <= ops; k++ {
		nw.Inject(time.Duration(k)*3*delta, 1, Leader(),
			ClientPropose{Client: client, Seq: uint64(k), Cmd: consensus.Value("op")})
	}
	// The follower has applied a slot or two when it dies; by restart the
	// survivors have compacted far past it.
	nw.CrashAt(2, 10*delta)
	nw.RestartAt(2, 50*delta)

	done := eng.RunUntil(func() bool {
		node := nw.Node(2)
		if !node.Up() {
			return false
		}
		return node.Process().(*Replica).Applied() >= ops &&
			clientCount(logs[0].snapshot(), client) >= ops
	}, 60*time.Second)
	if !done {
		t.Fatalf("follower did not catch up (leader %d ops applied)",
			clientCount(logs[0].snapshot(), client))
	}
	eng.Run(eng.Now() + 30*delta)

	r2 := nw.Node(2).Process().(*Replica)
	if r2.snapBase < 8 {
		t.Fatalf("follower horizon %d — it did not install a snapshot", r2.snapBase)
	}
	if r2.Applied() < ops {
		t.Fatalf("follower applied %d, want >= %d", r2.Applied(), ops)
	}
	assertClientOrder(t, r2)
	// The fresh incarnation replays its own short pre-crash prefix, then
	// jumps to the frontier via the snapshot: the compacted middle of the
	// log must never reach its applier.
	entries := logs[2].snapshot()
	assertExactlyOnce(t, 2, entries)
	if len(entries) >= ops {
		t.Fatalf("follower replayed %d entries — snapshot catch-up did not engage", len(entries))
	}
	for _, e := range entries {
		if e.Slot >= 4 {
			t.Fatalf("follower re-applied compacted slot %d", e.Slot)
		}
	}
	for id := 0; id < 2; id++ {
		survivors := logs[id].snapshot()
		assertExactlyOnce(t, id, survivors)
		countSession(t, id, survivors, client, ops)
	}
	hist, ok := collector.HistogramCopy(trace.HistCatchupLatency)
	if !ok || hist.Count() < 1 {
		t.Fatalf("catch-up latency histogram missing (recorded=%v)", ok)
	}
}

// TestSimConcurrentClaimersNeverReuseDecidedSlot is D2 under the race the
// one silence bound makes common: two followers claim at once. The Ω
// announcements make replica 1 adopt epoch 1 and replica 2 epoch 2 at the
// same instant, each is handed a proposal, and replica 1's second slot
// decides its batch before replica 2 hears it is deposed, while replica 2's
// slot counter still points there. A proposer that assigned that decided
// slot again would strand the batch: never acknowledged, its command still
// tracked, the slot counted in flight forever.
func TestSimConcurrentClaimersNeverReuseDecidedSlot(t *testing.T) {
	const n = 3
	delta := 10 * time.Millisecond
	eng, nw, logs := faultGroup(t, 3, simnet.Config{N: n, Delta: delta, TS: 0},
		Config{MaxBatch: 1, MaxInFlight: 2, FailoverTimeout: 100 * delta})
	nw.Start()

	nw.Inject(delta, 1, 1, leader.Announce{Leader: 1})
	nw.Inject(delta, 2, 2, leader.Announce{Leader: 2})
	propose := func(at time.Duration, to consensus.ProcessID, client int64) {
		nw.Inject(at, to, to, ClientPropose{Client: client, Seq: 1, Cmd: consensus.Value("op")})
	}
	propose(delta+time.Millisecond, 1, 70)
	propose(delta+time.Millisecond, 1, 71)
	propose(delta+time.Millisecond, 2, 72)
	propose(10*delta, 2, 73)

	clients := []int64{70, 71, 72, 73}
	done := eng.RunUntil(func() bool {
		for _, l := range logs {
			for _, c := range clients {
				if clientCount(l.snapshot(), c) < 1 {
					return false
				}
			}
		}
		return true
	}, 10*time.Second)
	eng.Run(eng.Now() + 20*delta)
	r2 := nw.Node(2).Process().(*Replica)
	if !done || r2.InFlight() != 0 || len(r2.tracked) != 0 || len(r2.pending) != 0 {
		t.Fatalf("stranded batch: every command applied=%v; the leader holds %d slots in flight, %d tracked commands, %d pending slots",
			done, r2.InFlight(), len(r2.tracked), len(r2.pending))
	}
	for id, l := range logs {
		entries := l.snapshot()
		assertExactlyOnce(t, id, entries)
		for _, c := range clients {
			countSession(t, id, entries, c, 1)
		}
	}
	assertSameLog(t, logs)
}
