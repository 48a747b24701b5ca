package rsm

// Fault-injection tests for the serving path: session dedup under message
// duplication, pipelined gap-fill under reordering, and a leader crash with
// a batch in flight. The invariant throughout is exactly-once apply in slot
// order at every replica.

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// applyLog records every applied command with its log position.
type applyLog struct {
	mu      sync.Mutex
	entries []appliedCmd
}

type appliedCmd struct {
	Slot int64
	Idx  int
	Cmd  Command
}

func (a *applyLog) Apply(slot int64, cmd consensus.Value) {
	a.ApplyEntry(slot, 0, Command{Op: cmd})
}

func (a *applyLog) ApplyEntry(slot int64, idx int, cmd Command) {
	a.mu.Lock()
	a.entries = append(a.entries, appliedCmd{Slot: slot, Idx: idx, Cmd: cmd})
	a.mu.Unlock()
}

func (a *applyLog) snapshot() []appliedCmd {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]appliedCmd(nil), a.entries...)
}

// faultGroup builds a simulated cluster with per-replica apply logs and the
// given serving-path knobs.
func faultGroup(t *testing.T, seed int64, simCfg simnet.Config, rsmCfg Config) (*sim.Engine, *simnet.Network, []*applyLog) {
	t.Helper()
	logs := make([]*applyLog, simCfg.N)
	for i := range logs {
		logs[i] = &applyLog{}
	}
	rsmCfg.Paxos.Delta = simCfg.Delta
	rsmCfg.Paxos.Rho = simCfg.Rho
	// Each incarnation gets a fresh log: a restarted replica re-applies the
	// persisted log from slot 0 (that is how sessions rebuild), so reusing
	// the old recorder would double-count the pre-crash prefix.
	rsmCfg.NewApplier = func(id consensus.ProcessID) Applier {
		l := &applyLog{}
		logs[id] = l
		return l
	}
	factory, err := New(rsmCfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(seed)
	nw, err := simnet.New(eng, simCfg, factory, make([]consensus.Value, simCfg.N))
	if err != nil {
		t.Fatal(err)
	}
	return eng, nw, logs
}

// assertExactlyOnce checks one replica's apply log: strictly increasing
// (slot, idx) positions and no session'd (client, seq) applied twice.
func assertExactlyOnce(t *testing.T, id int, entries []appliedCmd) {
	t.Helper()
	for i := 1; i < len(entries); i++ {
		a, b := entries[i-1], entries[i]
		if b.Slot < a.Slot || (b.Slot == a.Slot && b.Idx <= a.Idx) {
			t.Fatalf("replica %d applied out of order: %+v then %+v", id, a, b)
		}
	}
	seen := make(map[sessionKey]int64)
	for _, e := range entries {
		if e.Cmd.Seq == 0 {
			continue
		}
		k := sessionKey{e.Cmd.Client, e.Cmd.Seq}
		if prev, ok := seen[k]; ok {
			t.Fatalf("replica %d applied client %d seq %d twice (slots %d and %d)",
				id, e.Cmd.Client, e.Cmd.Seq, prev, e.Slot)
		}
		seen[k] = e.Slot
	}
}

// assertSameLog checks all replicas applied identical sequences.
func assertSameLog(t *testing.T, logs []*applyLog) {
	t.Helper()
	ref := logs[0].snapshot()
	for id := 1; id < len(logs); id++ {
		got := logs[id].snapshot()
		if len(got) != len(ref) {
			t.Fatalf("replica %d applied %d entries, replica 0 applied %d", id, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("replica %d log[%d] = %+v, replica 0 has %+v", id, i, got[i], ref[i])
			}
		}
	}
}

// countSession tallies one client's applied seqs, verifying they ascend.
func countSession(t *testing.T, id int, entries []appliedCmd, client int64, want int) {
	t.Helper()
	var last uint64
	n := 0
	for _, e := range entries {
		if e.Cmd.Client != client || e.Cmd.Seq == 0 {
			continue
		}
		if e.Cmd.Seq <= last {
			t.Fatalf("replica %d: client %d seq %d applied after seq %d", id, client, e.Cmd.Seq, last)
		}
		last = e.Cmd.Seq
		n++
	}
	if n != want {
		t.Fatalf("replica %d applied %d ops for client %d, want %d", id, n, client, want)
	}
}

// TestSimSessionDedupUnderDuplicate floods the leader with duplicated
// session'd proposals — the network copies messages and the "client" also
// retransmits every op, including a stale retry of seq 1 at the very end.
// Each op must apply exactly once, in seq order, at every replica.
func TestSimSessionDedupUnderDuplicate(t *testing.T) {
	const n = 3
	const client = 99
	const ops = 5
	delta := 10 * time.Millisecond
	eng, nw, logs := faultGroup(t, 11, simnet.Config{
		N: n, Delta: delta, TS: 400 * time.Millisecond,
		Policy: simnet.Duplicate{Prob: 0.8, MaxExtra: 2},
	}, Config{})
	nw.Start()

	for k := 1; k <= ops; k++ {
		at := time.Duration(k) * 3 * delta
		msg := ClientPropose{Client: client, Seq: uint64(k), Cmd: consensus.Value("op")}
		nw.Inject(at, 1, Leader(), msg)
		nw.Inject(at+delta, 1, Leader(), msg) // client retransmit
	}
	// A stale retry long after seq 5 applied: must be acked, never re-run.
	nw.Inject(30*delta, 1, Leader(), ClientPropose{Client: client, Seq: 1, Cmd: "op"})

	done := eng.RunUntil(func() bool {
		for _, l := range logs {
			if len(l.snapshot()) < ops {
				return false
			}
		}
		return true
	}, 60*time.Second)
	if !done {
		t.Fatalf("log did not apply everywhere: %d/%d/%d entries",
			len(logs[0].snapshot()), len(logs[1].snapshot()), len(logs[2].snapshot()))
	}
	// Let late duplicates drain, then re-check nothing re-applied.
	eng.Run(eng.Now() + 50*delta)

	for id, l := range logs {
		entries := l.snapshot()
		assertExactlyOnce(t, id, entries)
		countSession(t, id, entries, client, ops)
	}
	assertSameLog(t, logs)
}

// TestSimPipelinedGapFillUnderReorder bursts ops from many sessions through
// a small-batch, deep-pipeline leader while the network jitters delivery by
// up to 4δ. Slots decide out of order; the apply path must hold entries
// until the log is contiguous and then apply in slot order on every replica.
func TestSimPipelinedGapFillUnderReorder(t *testing.T) {
	const n = 3
	const nclients = 10
	delta := 10 * time.Millisecond
	eng, nw, logs := faultGroup(t, 23, simnet.Config{
		N: n, Delta: delta, TS: 600 * time.Millisecond,
		Policy: simnet.Reorder{Jitter: 4 * delta},
	}, Config{MaxBatch: 2, MaxInFlight: 4})
	nw.Start()

	for c := 0; c < nclients; c++ {
		msg := ClientPropose{Client: int64(100 + c), Seq: 1, Cmd: consensus.Value("op")}
		at := 2*delta + time.Duration(c)*200*time.Microsecond
		nw.Inject(at, 1, Leader(), msg)
		nw.Inject(at+delta, 1, Leader(), msg) // retransmit under jitter
	}

	done := eng.RunUntil(func() bool {
		for _, l := range logs {
			if len(l.snapshot()) < nclients {
				return false
			}
		}
		return true
	}, 60*time.Second)
	if !done {
		t.Fatalf("log did not apply everywhere: %d/%d/%d entries",
			len(logs[0].snapshot()), len(logs[1].snapshot()), len(logs[2].snapshot()))
	}
	eng.Run(eng.Now() + 50*delta)

	slots := make(map[int64]bool)
	for id, l := range logs {
		entries := l.snapshot()
		assertExactlyOnce(t, id, entries)
		if len(entries) != nclients {
			t.Fatalf("replica %d applied %d entries, want %d", id, len(entries), nclients)
		}
		for _, e := range entries {
			slots[e.Slot] = true
		}
	}
	assertSameLog(t, logs)
	// Pipelining evidence: the burst spread across several slots.
	if len(slots) < 3 {
		t.Fatalf("burst used %d slots — pipeline did not engage", len(slots))
	}
}

// TestSimLeaderCrashMidBatch crashes the leader with committed, in-flight,
// and queued commands outstanding, restarts it, and replays the whole
// session as client retries. Every op must survive exactly once: committed
// ones via the persisted log plus dedup, lost ones via the retry.
func TestSimLeaderCrashMidBatch(t *testing.T) {
	const n = 3
	const client = 50
	const ops = 6
	delta := 10 * time.Millisecond
	eng, nw, logs := faultGroup(t, 7, simnet.Config{
		N: n, Delta: delta, TS: 0,
	}, Config{MaxBatch: 4, MaxInFlight: 2})
	nw.Start()

	// First half of the session lands before the crash; by 8δ slot 0 has
	// applied and a follow-up batch is in flight.
	for k := 1; k <= 3; k++ {
		nw.Inject(time.Duration(k)*3*delta, 1, Leader(),
			ClientPropose{Client: client, Seq: uint64(k), Cmd: consensus.Value("op")})
	}
	nw.CrashAt(0, 8*delta)
	nw.RestartAt(0, 13*delta)
	// The client times out and replays the full session in order.
	for k := 1; k <= ops; k++ {
		nw.Inject(20*delta+time.Duration(k-1)*3*delta, 1, Leader(),
			ClientPropose{Client: client, Seq: uint64(k), Cmd: consensus.Value("op")})
	}

	done := eng.RunUntil(func() bool {
		for _, l := range logs {
			got := 0
			for _, e := range l.snapshot() {
				if e.Cmd.Client == client {
					got++
				}
			}
			if got < ops {
				return false
			}
		}
		return true
	}, 120*time.Second)
	if !done {
		t.Fatalf("session incomplete after crash: %d/%d/%d entries",
			len(logs[0].snapshot()), len(logs[1].snapshot()), len(logs[2].snapshot()))
	}
	eng.Run(eng.Now() + 50*delta)

	for id, l := range logs {
		entries := l.snapshot()
		assertExactlyOnce(t, id, entries)
		countSession(t, id, entries, client, ops)
	}
	assertSameLog(t, logs)
}

// TestSimFollowerCatchUpAfterRetirement crashes a follower, commits ops
// while it is down (the other replicas apply and retire those instances, so
// no decision gossip remains), and restarts it. The Learn protocol — not
// instance traffic — must deliver the missed decisions.
func TestSimFollowerCatchUpAfterRetirement(t *testing.T) {
	const n = 3
	delta := 10 * time.Millisecond
	eng, nw, logs := faultGroup(t, 5, simnet.Config{
		N: n, Delta: delta, TS: 0,
	}, Config{})
	nw.Start()

	nw.CrashAt(2, delta)
	for k := 1; k <= 3; k++ {
		nw.Inject(time.Duration(k+2)*3*delta, 1, Leader(),
			ClientPropose{Client: 7, Seq: uint64(k), Cmd: consensus.Value("op")})
	}
	// Let the survivors decide, apply, and retire the slots, then bring the
	// follower back.
	nw.RestartAt(2, 40*delta)

	done := eng.RunUntil(func() bool {
		return len(logs[2].snapshot()) >= 3
	}, 60*time.Second)
	if !done {
		t.Fatalf("restarted follower applied %d entries, want 3 (survivors: %d/%d)",
			len(logs[2].snapshot()), len(logs[0].snapshot()), len(logs[1].snapshot()))
	}
	eng.Run(eng.Now() + 30*delta)

	for id, l := range logs {
		assertExactlyOnce(t, id, l.snapshot())
		countSession(t, id, l.snapshot(), 7, 3)
	}
	assertSameLog(t, logs)
}

// TestSimEvictedSessionsStillDedup squeezes the in-memory session table down
// to 2 entries while 6 clients commit ops, then replays stale duplicates for
// the earliest clients — whose sessions have long been evicted to the stable
// store. The spilled records must still dedup: every duplicate is acked from
// its original slot and never re-applied.
func TestSimEvictedSessionsStillDedup(t *testing.T) {
	const n = 3
	const nclients = 6
	delta := 10 * time.Millisecond
	eng, nw, logs := faultGroup(t, 31, simnet.Config{
		N: n, Delta: delta, TS: 400 * time.Millisecond,
	}, Config{MaxSessions: 2})
	nw.Start()

	// Six clients, one op each, spaced out so they land in distinct slots
	// and the eviction order (oldest applied slot first) is well defined.
	for c := 0; c < nclients; c++ {
		msg := ClientPropose{Client: int64(200 + c), Seq: 1, Cmd: consensus.Value("op")}
		nw.Inject(time.Duration(c+1)*4*delta, 1, Leader(), msg)
	}
	// Stale duplicates for the first four clients — all evicted by the time
	// these arrive (only 2 sessions stay in memory).
	for c := 0; c < 4; c++ {
		msg := ClientPropose{Client: int64(200 + c), Seq: 1, Cmd: consensus.Value("op")}
		nw.Inject(time.Duration(nclients+2)*4*delta+time.Duration(c)*delta, 1, Leader(), msg)
	}

	done := eng.RunUntil(func() bool {
		for _, l := range logs {
			if len(l.snapshot()) < nclients {
				return false
			}
		}
		return true
	}, 60*time.Second)
	if !done {
		t.Fatalf("log did not apply everywhere: %d/%d/%d entries",
			len(logs[0].snapshot()), len(logs[1].snapshot()), len(logs[2].snapshot()))
	}
	// Let the duplicates drain, then verify nothing re-applied anywhere.
	eng.Run(eng.Now() + 50*delta)

	for id, l := range logs {
		entries := l.snapshot()
		assertExactlyOnce(t, id, entries)
		for c := 0; c < nclients; c++ {
			countSession(t, id, entries, int64(200+c), 1)
		}
	}
	assertSameLog(t, logs)

	// The leader's in-memory table really is bounded: at most MaxSessions
	// entries survive in memory, the rest answer from the stable store.
	leader := nw.Node(Leader()).Process().(*Replica)
	if got := len(leader.sessions); got > 2 {
		t.Fatalf("leader holds %d sessions in memory, MaxSessions is 2", got)
	}
	assertClientOrder(t, leader)
}
