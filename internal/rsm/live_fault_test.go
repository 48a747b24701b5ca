package rsm

// Live-runtime crash tests: kill the leader under real goroutines and
// wall-clock timers, fail over, restart it behind the compaction horizon,
// and time the catch-up. The sim twins in failover_sim_test.go pin the exact
// schedules; these verify the same machinery holds up outside virtual time.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/core/modpaxos"
	"repro/internal/live"
	"repro/internal/storage"
	"repro/internal/trace"
)

func TestLiveCrashRestartCatchUpBounded(t *testing.T) {
	const d = 5 * time.Millisecond
	const ops = 12
	collector := trace.NewCollector()
	collector.EnableHistograms()
	transport := live.NewMemTransport(live.MemTransportConfig{MaxDelay: d, Seed: 11, Collector: collector})
	factory, err := New(Config{
		Paxos:           modpaxos.Config{Delta: d},
		FailoverTimeout: 20 * d,
		SnapshotEvery:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := live.NewCluster(live.Config{
		N: 3, Delta: d, Transport: transport, Collector: collector, Seed: 11,
	}, factory, make([]consensus.Value, 3))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cluster.Stop() })
	cluster.Start()

	client := NewClient(3, transport)
	client.SetTimeout(30 * time.Second)
	client.SetRetryInterval(10 * d)
	client.SetReplicas(3)

	var lastSlot int64 // the slot the last write was applied in
	propose := func(i int) {
		t.Helper()
		slot, err := client.Propose(consensus.Value(fmt.Sprintf("set k%d v%d", i, i)))
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		lastSlot = slot
	}
	// A committed prefix through the epoch-0 leader, then kill it.
	for i := 0; i < 4; i++ {
		propose(i)
	}
	cluster.Crash(0)
	crashed := time.Now()
	// The client's silent-retry rotation finds the failed-over leader, and
	// the surviving pair keeps committing — far enough that compaction
	// truncates the log past the crashed replica's applied point.
	for i := 4; i < ops; i++ {
		propose(i)
	}
	cluster.Restart(0)

	// Get parks until replica 0 has applied the last write's slot, so a
	// successful read IS the catch-up: the restarted replica serves the full
	// prefix again. The watermark counts slots, not ops: failover can put a
	// no-op slot before the last write.
	v, found, err := client.Get(0, fmt.Sprintf("k%d", ops-1), lastSlot+1)
	if err != nil || !found || v != fmt.Sprintf("v%d", ops-1) {
		t.Fatalf("restarted replica did not catch up: k%d = (%q,%v,%v), written in slot %d", ops-1, v, found, err, lastSlot)
	}
	recovery := time.Since(crashed)
	if recovery > 10*time.Second {
		t.Fatalf("crash→caught-up took %v", recovery)
	}

	// The catch-up window must have been recorded, and the recorded value
	// stays within the same generous wall-clock bound.
	h, ok := collector.HistogramCopy(trace.HistCatchupLatency)
	if !ok || h.Count() == 0 {
		t.Fatal("no catch-up latency recorded on the live backend")
	}
	s := h.Snapshot(trace.HistCatchupLatency)
	if time.Duration(s.Max) > 10*time.Second {
		t.Fatalf("recorded catch-up latency %v exceeds bound", time.Duration(s.Max))
	}

	// Catch-up crossed the compaction horizon via snapshot: replica 0 holds
	// an installed snapshot at least one window deep, and its surviving
	// rsmlog/ records are bounded by the windows above it, not the full log.
	snap, ok := loadSnapshot(cluster.Node(0).Store())
	if !ok {
		t.Fatal("restarted replica has no readable snapshot")
	}
	if snap.Applied < 4 {
		t.Fatalf("snapshot horizon %d, want ≥ 4", snap.Applied)
	}
	keys, err := cluster.Node(0).Store().Keys()
	if err != nil {
		t.Fatal(err)
	}
	logKeys := 0
	for _, k := range keys {
		if len(k) > len(storage.KeyRSMLogPrefix) && k[:len(storage.KeyRSMLogPrefix)] == storage.KeyRSMLogPrefix {
			logKeys++
		}
	}
	if logKeys >= ops {
		t.Fatalf("restarted replica holds %d rsmlog keys for %d ops — no truncation", logKeys, ops)
	}
}
