package rsmbench

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/core/modpaxos"
	"repro/internal/harness"
	"repro/internal/rsm"
	"repro/internal/scenario"
	"repro/internal/trace"
)

func TestClosedLoopSimCompletes(t *testing.T) {
	res, err := Run(Config{Backend: scenario.BackendSim, Clients: 4, Ops: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("run did not complete: %+v", res)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.TotalOps != 20 {
		t.Fatalf("TotalOps = %d, want 20", res.TotalOps)
	}
	if res.OpsPerSec <= 0 {
		t.Fatalf("OpsPerSec = %v", res.OpsPerSec)
	}
	if res.Commit == nil || res.Commit.Count != 20 {
		t.Fatalf("commit histogram missing or wrong count: %+v", res.Commit)
	}
	if res.Slots <= 0 || res.Slots > 20 {
		t.Fatalf("Slots = %d", res.Slots)
	}
}

func TestSimIsDeterministic(t *testing.T) {
	run := func() (time.Duration, int64, float64) {
		res, err := Run(Config{Backend: scenario.BackendSim, Clients: 3, Ops: 4, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return res.Duration, res.TotalOps, res.OpsPerSec
	}
	d1, o1, r1 := run()
	d2, o2, r2 := run()
	if d1 != d2 || o1 != o2 || r1 != r2 {
		t.Fatalf("nondeterministic bench: (%v,%d,%v) vs (%v,%d,%v)", d1, o1, r1, d2, o2, r2)
	}
}

func TestBatchingPipeliningBeatsSingleSlot(t *testing.T) {
	base := Config{Backend: scenario.BackendSim, Clients: 16, Ops: 10}

	single := base
	single.MaxBatch, single.MaxInFlight = 1, 1
	sres, err := Run(single)
	if err != nil {
		t.Fatal(err)
	}
	if !sres.Passed() {
		t.Fatalf("single-slot run failed: completed=%v violations=%v", sres.Completed, sres.Violations)
	}

	batched := base
	batched.MaxBatch, batched.MaxInFlight = 8, 4
	bres, err := Run(batched)
	if err != nil {
		t.Fatal(err)
	}
	if !bres.Passed() {
		t.Fatalf("batched run failed: completed=%v violations=%v", bres.Completed, bres.Violations)
	}

	// The acceptance bar was 5×; this small workload asserts a conservative
	// 3×, and TestBatchPipelineMatrix pins the real numbers (13.2× at 32
	// clients × 50 ops). On the virtual-time simulator the ratio is
	// deterministic.
	if bres.OpsPerSec < 3*sres.OpsPerSec {
		t.Fatalf("batched %0.f ops/s < 3× single-slot %0.f ops/s", bres.OpsPerSec, sres.OpsPerSec)
	}
	// Batching evidence: the log used far fewer slots than ops.
	if bres.Slots >= bres.TotalOps/2 {
		t.Fatalf("batched run used %d slots for %d ops — no coalescing", bres.Slots, bres.TotalOps)
	}
}

// TestBatchPipelineMatrix pins the serving path's virtual-time throughput:
// 32 closed-loop clients × 50 ops at seed 2 over batch {1,8} × pipeline
// {1,4}. The simulator counts virtual time, so duration and slot count are
// exact; any change to batching, pipelining, the commit path's message
// pattern or the order of RNG draws moves them. A deliberate change updates
// the row and says why. The rows stood at 2754808226, 665567629, 354638510,
// 232404476 ns in 1600, 1600, 204, 222 slots until a prepared follower's
// instance stopped sending a P1a when it opens (+1.1, +2.3, +0.2, +2.6 %):
// under uniform random delays that P1a drew a P1b to the leader, which
// answered with a retransmitted P2a — a second delay draw that sometimes beat
// the first, so losing it costs a little virtual time per slot. They stood
// at 3493325256, 870482560, 452836671, 267566544 ns in 1600, 1600, 203, 209
// slots until a replica's self-addressed
// slot messages were delivered locally: the leader's own phase-2 vote costs
// no delay, so its quorum is the faster follower's round trip (−13 to −24 %
// per row), and the batched rows close slots sooner with fewer ops each.
// Before that, retired slots went silent (fewer messages, so every later RNG
// draw moved) — from 3446420160, 860730281, 424623510, 261741106 ns in 1600,
// 1600, 202, 209 slots.
func TestBatchPipelineMatrix(t *testing.T) {
	for _, row := range []struct {
		batch, pipeline int
		duration        time.Duration // 1600 ops: 575, 2350, 4502, 6708 ops/s
		slots           int64
	}{
		{1, 1, 2784322619, 1600},
		{1, 4, 680839582, 1600},
		{8, 1, 355422629, 204},
		{8, 4, 238534867, 216},
	} {
		res, err := Run(Config{
			Backend: scenario.BackendSim, Clients: 32, Ops: 50, Seed: 2,
			MaxBatch: row.batch, MaxInFlight: row.pipeline,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Passed() || res.TotalOps != 1600 {
			t.Fatalf("batch=%d k=%d: completed=%v ops=%d violations=%v",
				row.batch, row.pipeline, res.Completed, res.TotalOps, res.Violations)
		}
		if res.Duration != row.duration || res.Slots != row.slots {
			t.Errorf("batch=%d k=%d: %d ns in %d slots, pinned %d ns in %d slots",
				row.batch, row.pipeline, res.Duration, res.Slots, row.duration, row.slots)
		}
	}
}

// TestMessagesPerSlotPinned holds the paper's §4 subject — what a sequence
// of instances costs in messages — as a checked number: the consensus
// messages of the batch 8 × pipeline 4 matrix row (216 slots, n = 3, no
// faults), by type. The stable-case count is (N−1) phase-2a + N(N−1)
// phase-2b network messages per slot, 2 + 6 = 8: a replica's messages to
// itself are delivered locally. An in-order slot announces nothing and a
// prepared follower's instance opens silently, so what is left of P1a is the
// ε heartbeat — at ε = δ/2, a slot that takes longer than ε to decide still
// sends it — and rsm-decided and P1b answer it. The row stood at "222 slots:
// p2a 688, p2b 2166, decided 1629, p1a 1538, p1b 657" (30.1 per slot) until
// follower instances stopped sending a P1a when they open (17.8 per slot),
// and at "209 slots: p2a 936, p2b 1965,
// decided 2295, p1a 3219, p1b 1348" (46.7 messages per slot) until
// self-addressed slot messages stopped crossing the network (30.1 per slot);
// while retired slots announced: p2a 902, p2b 1920, decided 5843, p1a 3189,
// p1b 1245.
func TestMessagesPerSlotPinned(t *testing.T) {
	res, err := Run(Config{
		Backend: scenario.BackendSim, Clients: 32, Ops: 50, Seed: 2,
		MaxBatch: 8, MaxInFlight: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("run failed: completed=%v violations=%v", res.Completed, res.Violations)
	}
	sent := res.Collector().SentByType()
	got := fmt.Sprintf("%d slots: p2a %d, p2b %d, decided %d, p1a %d, p1b %d",
		res.Slots, sent["rsm-p2a"], sent["rsm-p2b"], sent["rsm-decided"], sent["rsm-p1a"], sent["rsm-p1b"])
	const pinned = "216 slots: p2a 453, p2b 1754, decided 814, p1a 696, p1b 123"
	if got != pinned {
		t.Errorf("messages per slot moved:\n got    %s\n pinned %s", got, pinned)
	}
}

func TestOpenLoop(t *testing.T) {
	res, err := Run(Config{
		Backend: scenario.BackendSim, Clients: 4, Ops: 6,
		OpenInterval: 4 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("open-loop run failed: completed=%v violations=%v", res.Completed, res.Violations)
	}
	if res.TotalOps != 24 {
		t.Fatalf("TotalOps = %d, want 24", res.TotalOps)
	}
}

// TestOpenLoopLosesAckedWrites reproduces D1 in the main module: an
// open-loop session with several ops outstanding is acked for writes that
// never apply (seed 1 shows it). The oracle reports exactly those, as
// lost-ack and nothing else. When D1 is fixed the count drops to zero and
// this test flips to asserting a clean run.
func TestOpenLoopLosesAckedWrites(t *testing.T) {
	res, err := Run(Config{Backend: scenario.BackendSim, OpenInterval: 500 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("run did not complete: %v", res.Violations)
	}
	for _, v := range res.Violations {
		if !strings.HasPrefix(v, "lost-ack:") {
			t.Errorf("finding other than lost-ack: %s", v)
		}
	}
	lost := res.TotalOps - int64(res.history.Applied())
	if lost <= 0 || int64(len(res.Violations)) != lost {
		t.Fatalf("%d findings, want acked %d − applied %d = %d",
			len(res.Violations), res.TotalOps, res.history.Applied(), lost)
	}
}

func TestBackpressureShedsAndRecovers(t *testing.T) {
	// A tiny queue with no pipelining forces Busy rejections; client
	// retries with session dedup must still finish exactly-once.
	res, err := Run(Config{
		Backend: scenario.BackendSim, Clients: 12, Ops: 4,
		MaxBatch: 1, MaxInFlight: 1, MaxQueue: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("backpressure run did not complete (busy=%d shed=%d)", res.Busy, res.Shed)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations under backpressure: %v", res.Violations)
	}
	if res.Busy == 0 || res.Shed == 0 {
		t.Fatalf("expected load shedding, got busy=%d shed=%d", res.Busy, res.Shed)
	}
}

func TestLiveMemBackend(t *testing.T) {
	res, err := Run(Config{Backend: scenario.BackendLive, Clients: 3, Ops: 4, Delta: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("live run failed: completed=%v violations=%v", res.Completed, res.Violations)
	}
	if res.TotalOps != 12 {
		t.Fatalf("TotalOps = %d, want 12", res.TotalOps)
	}
}

func TestObserveSpansRecorded(t *testing.T) {
	res, err := Run(Config{Backend: scenario.BackendSim, Clients: 2, Ops: 3, Observe: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("run failed: %v", res.Violations)
	}
	c := res.Collector()
	kinds := c.SpanKindNames()
	spans := trace.PairSpans(c.SpanEvents(), func(id int32) string { return kinds[id] }, res.Duration)
	var ops, commits int
	for _, s := range spans {
		if s.Open {
			t.Errorf("span %s of process %d left open by a completed run", s.Kind, s.Proc)
		}
		switch {
		case s.Kind == "rsm-op":
			ops++
		case len(s.Kind) > 5 && s.Kind[:4] == "slot" && s.Kind[len(s.Kind)-7:] == "-commit":
			commits++
		}
	}
	if ops != 6 {
		t.Fatalf("rsm-op spans = %d, want 6", ops)
	}
	if commits == 0 {
		t.Fatal("no slotN-commit spans recorded")
	}
}

// chaosLeaderCrash is the ISSUE 10 acceptance configuration: batch=8, K=4, 32
// clients, with the leader killed mid-run and restarted behind the
// compaction horizon.
var chaosLeaderCrash = Config{
	Backend: scenario.BackendSim, Clients: 32, Ops: 5, Seed: 9,
	MaxBatch: 8, MaxInFlight: 4,
	Restarts:     []harness.Restart{{Proc: rsm.Leader(), CrashAt: harness.AtAbs(10 * time.Millisecond), RestartAt: harness.AtAbs(60 * time.Millisecond)}},
	CompactEvery: 8,
}

// TestRunRejectsUnknownBackend pins that rsm-bench keeps no backend list of
// its own: a name outside scenario.BackendNames is an error, not a run.
func TestRunRejectsUnknownBackend(t *testing.T) {
	_, err := Run(Config{Backend: "warp", Clients: 1, Ops: 1})
	if err == nil || !strings.Contains(err.Error(), "unknown backend") {
		t.Fatalf("backend warp: got %v, want the scenario registry's error", err)
	}
}

// TestRunRejectsBadSchedules: on either substrate a schedule that cannot
// happen is an error before the run, not a completed run that reports a
// restart which never took place. Only replicas can be crashed: with N = 3,
// process 3 is the first client.
func TestRunRejectsBadSchedules(t *testing.T) {
	ms := time.Millisecond
	for _, backend := range []string{scenario.BackendSim, scenario.BackendLive} {
		for want, r := range map[string]harness.Restart{
			"before its crash":  {Proc: rsm.Leader(), CrashAt: harness.AtAbs(50 * ms), RestartAt: harness.AtAbs(10 * ms)},
			"in a cluster of 3": {Proc: 3, CrashAt: harness.AtAbs(10 * ms)},
			"before time 0":     {Proc: rsm.Leader(), CrashAt: harness.AtAbs(-ms)},
		} {
			res, err := Run(Config{Backend: backend, Clients: 2, Ops: 2, Restarts: []harness.Restart{r}})
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s %+v: got %v (result %+v), want an error containing %q", backend, r, err, res, want)
			}
		}
	}
}

func TestChaosLeaderCrashCompletes(t *testing.T) {
	res, err := Run(chaosLeaderCrash)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("chaos run did not complete (retries=%d)", res.Retries)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations under leader crash: %v", res.Violations)
	}
	if res.TotalOps != 160 {
		t.Fatalf("TotalOps = %d, want 160", res.TotalOps)
	}
	// Clients only finish by resuming on the new leader, which shows up as
	// retransmissions and a recorded failover recovery window.
	if res.Retries == 0 {
		t.Fatal("no client retries — the crash did not bite")
	}
	if res.Outage == nil || res.Outage.Count != int64(res.Clients) {
		t.Fatalf("outage series %+v, want one sample per client", res.Outage)
	}
	if len(res.LogKeys) != res.N {
		t.Fatalf("LogKeys = %v, want one census per replica", res.LogKeys)
	}
	// Compaction bound: every surviving replica truncated below its snapshot
	// horizon, so live rsmlog/ records stay within a few snapshot windows
	// even though the run consumed far more slots.
	for id, n := range res.LogKeys {
		if n < 0 || n > 3*res.CompactEvery {
			t.Fatalf("replica %d holds %d rsmlog keys (slots=%d, compact-every=%d)",
				id, n, res.Slots, res.CompactEvery)
		}
	}
	if res.Slots <= res.CompactEvery {
		t.Fatalf("run too short to exercise compaction: %d slots", res.Slots)
	}
}

func TestChaosRunIsDeterministic(t *testing.T) {
	run := func() (time.Duration, int64, int64) {
		res, err := Run(Config{
			Backend: scenario.BackendSim, Clients: 8, Ops: 4, Seed: 5,
			MaxBatch: 4, MaxInFlight: 2,
			Restarts:     []harness.Restart{{Proc: rsm.Leader(), CrashAt: harness.AtAbs(8 * time.Millisecond), RestartAt: harness.AtAbs(40 * time.Millisecond)}},
			CompactEvery: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Passed() {
			t.Fatalf("chaos run failed: completed=%v violations=%v", res.Completed, res.Violations)
		}
		return res.Duration, res.TotalOps, res.Retries
	}
	d1, o1, r1 := run()
	d2, o2, r2 := run()
	if d1 != d2 || o1 != o2 || r1 != r2 {
		t.Fatalf("nondeterministic chaos bench: (%v,%d,%d) vs (%v,%d,%d)", d1, o1, r1, d2, o2, r2)
	}
}

// TestChaosSchedulePinned is TestBatchPipelineMatrix for the paths the steady
// state never takes: failover, Claim, snapshot install and log truncation.
// A change that moves a delivery, a timer, an RNG draw, a message or a store
// key under chaos moves one of the values. They stood at "124917459 ns, 23
// slots, 64 retries, 2839 sent, log keys [7 7 7]" from 60589cf until retired
// slots went silent (419 fewer messages), then at "128276168 ns, 23 slots, 64
// retries, 2420 sent, log keys [7 7 7]" until failover took one silence
// bound: both followers claim at once instead of replica 1 alone, and the
// winner redirects the 32 clients instead of each walking the ring two
// retries per dead replica. The outage, measured the same way, was 32× max
// 97754923 ns mean 94337121 ns under the staggered promotion. They then stood
// at "60225144 ns, 22 slots, 18 retries, 1812 sent, log keys [6 6 6], outage
// 32× max 29991086 ns mean 26211549 ns" until self-addressed slot messages
// and Beats stopped crossing the network and a snapshot install stopped
// dropping the leader's own batches: the seed-9 outage mean rose 26.2 →
// 26.9 ms, while over seeds 1–40 of this config the mean outage went
// 27.24 → 26.96 ms, the max 35.35 → 35.03 ms and retries 1121 → 739. They
// then stood at "58327390 ns, 23 slots, 14 retries, 1407 sent, log keys
// [7 7 7], outage 32× max 29162021 ns mean 26905747 ns" until a prepared
// follower's instance stopped sending a P1a when it opens (261 fewer
// messages; the catch-up timer now opens the gap's instances): the seed-9
// outage mean fell 26.9 → 26.2 ms, and over seeds 1–40 the mean outage went
// 26.96 → 26.86 ms, the max 35.03 → 34.05 ms and retries 739 → 703.
func TestChaosSchedulePinned(t *testing.T) {
	res, err := Run(chaosLeaderCrash)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("chaos run failed: completed=%v violations=%v", res.Completed, res.Violations)
	}
	got := fmt.Sprintf("%d ns, %d slots, %d retries, %d sent, log keys %v, outage %d× max %d ns mean %d ns",
		res.Duration, res.Slots, res.Retries, res.Collector().TotalSent(), res.LogKeys,
		res.Outage.Count, res.Outage.Max, res.Outage.Mean)
	const pinned = "55182695 ns, 23 slots, 15 retries, 1146 sent, log keys [7 7 7], outage 32× max 29662292 ns mean 26239037 ns"
	if got != pinned {
		t.Errorf("chaos schedule moved:\n got    %s\n pinned %s", got, pinned)
	}
}

// TestSeriesNamesDoNotGrowWithLog: slot instances emit under fixed kinds, so
// the collector holds the same few series after 400 slots as after 40 — on
// the simulator, and after a closed loop over loopback TCP with no injected
// delay (the serve_tcp_closed shape). A series per slot was a map key and a
// slice per slot for the life of the cluster's one mutexed collector.
func TestSeriesNamesDoNotGrowWithLog(t *testing.T) {
	series := func(backend string, ops int) ([]string, int64) {
		var mu sync.Mutex
		kinds := map[string]bool{}
		c := trace.NewCollector()
		c.OnEmit(func(kind string, _ trace.Sample) {
			mu.Lock()
			kinds[kind] = true
			mu.Unlock()
		})
		res, err := run(Config{Backend: backend, Clients: 8, Ops: ops, MaxBatch: 1}, c, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Passed() {
			t.Fatalf("%s run failed: completed=%v violations=%v", backend, res.Completed, res.Violations)
		}
		mu.Lock()
		defer mu.Unlock()
		names := slices.Sorted(maps.Keys(kinds))
		return names, res.Slots
	}
	short, shortSlots := series(scenario.BackendSim, 5)
	long, longSlots := series(scenario.BackendSim, 50)
	if longSlots < 10*shortSlots || len(long) == 0 || !slices.Equal(short, long) {
		t.Errorf("sim: %d slots left series %v, %d slots left %v", shortSlots, short, longSlots, long)
	}
	live, liveSlots := series(scenario.BackendLiveTCP, 30)
	if liveSlots < 200 {
		t.Fatalf("live run too short to show growth: %d slots", liveSlots)
	}
	for _, name := range live {
		// The simulator adds the checker's "decide"; the live runtime emits
		// nothing of its own.
		if !slices.Contains(long, name) {
			t.Errorf("live-tcp: series %q after %d slots, the simulator has only %v", name, liveSlots, long)
		}
	}
}

// TestFailoverFlatInCrashedCandidates is the paper's claim for the serving
// stack: with the leader and the next k−1 candidates crashed together for
// good, the log is back within one silence bound plus the repair, however
// large k is. Every follower waits the same FailoverTimeout and the highest
// claimer leads, and it redirects the clients its predecessor's Beats named.
// The outage (the slowest client's crash → first ack) must be flat in k
// within 2δ and within ε+3τ+5δ + Linger + 2δ of the crash, taken as TS. The
// k = 0 row is the no-fault reference: its commit max, the longest any client
// waits without a crash, must lie below every outage, so the series measures
// the failover rather than the workload's own tail. With
// staggered promotion and ring-walking clients the n = 7 commit maximum was
// 101.6, 198.7 and 301.2 ms for k = 1…3.
func TestFailoverFlatInCrashedCandidates(t *testing.T) {
	const delta = 2 * time.Millisecond
	bound, err := modpaxos.DecisionBound(modpaxos.Config{Delta: delta})
	if err != nil {
		t.Fatal(err)
	}
	bound += 2 * delta // Linger is 0
	for _, n := range []int{5, 7} {
		var outages []time.Duration
		var ref time.Duration // the k = 0 commit max
		for k := 0; k <= (n-1)/2; k++ {
			cfg := Config{Backend: scenario.BackendSim, N: n, Clients: 8, Ops: 40, Seed: 1, Delta: delta, FailoverTimeout: 20 * time.Millisecond}
			for p := 0; p < k; p++ {
				cfg.Restarts = append(cfg.Restarts, harness.Restart{Proc: consensus.ProcessID(p), CrashAt: harness.AtAbs(10 * time.Millisecond)})
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Passed() {
				t.Fatalf("n=%d k=%d: completed=%v violations=%v", n, k, res.Completed, res.Violations)
			}
			if k == 0 {
				ref = time.Duration(res.Commit.Max)
				t.Logf("n=%d k=0: commit max %v", n, ref)
				continue
			}
			if res.Outage == nil || res.Outage.Count != int64(k*cfg.Clients) {
				t.Fatalf("n=%d k=%d: outage series %+v, want one sample per crash and client", n, k, res.Outage)
			}
			outage := time.Duration(res.Outage.Max)
			t.Logf("n=%d k=%d: outage max %v (bound %v), commit max %v", n, k, outage, bound, time.Duration(res.Commit.Max))
			if outage > bound {
				t.Errorf("n=%d k=%d: outage %v exceeds ε+3τ+5δ + Linger + 2δ = %v", n, k, outage, bound)
			}
			if outage <= ref {
				t.Errorf("n=%d k=%d: outage %v within the no-fault commit max %v: the crash was not seen", n, k, outage, ref)
			}
			outages = append(outages, outage)
		}
		if lo, hi := slices.Min(outages), slices.Max(outages); hi-lo > 2*delta {
			t.Errorf("n=%d: outage over k = 1…%d spans %v…%v, more than 2δ", n, (n-1)/2, lo, hi)
		}
	}
}

// TestHorizonCoversOneSilenceBound: a crash stalls the log for one silence
// bound, so the default horizon must grow with σ — a σ beyond its fixed 10 s
// slack otherwise ends the run as a timeout.
func TestHorizonCoversOneSilenceBound(t *testing.T) {
	res, err := Run(Config{Backend: scenario.BackendSim, FailoverTimeout: 15 * time.Second,
		Restarts: []harness.Restart{{Proc: 0, CrashAt: harness.AtAbs(10 * time.Millisecond)}}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("σ = 15 s: completed=%v violations=%v", res.Completed, res.Violations)
	}
}
