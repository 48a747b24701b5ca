package rsmbench

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/core/modpaxos"
	"repro/internal/harness"
	"repro/internal/live"
	"repro/internal/rsm"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Run executes one benchmark configuration and returns its result. The
// invariant checks (apply order, session dedup, cross-replica agreement,
// completeness) always run; their failures land in Result.Violations
// rather than the error, which is reserved for configurations that cannot
// run at all.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	total := cfg.N + cfg.Clients

	collector := trace.NewCollector()
	collector.EnableHistograms()
	if cfg.Observe {
		collector.EnableSpans(cfg.SpanCapacity)
	}

	// Each incarnation gets a fresh recorder (a restarted replica replays
	// its surviving log prefix; reusing the recorder would double-count).
	// recorders[i] always points at replica i's latest incarnation.
	var recMu sync.Mutex
	recorders := make([]*Recorder, cfg.N)
	for i := range recorders {
		recorders[i] = &Recorder{}
	}
	rsmFactory, err := rsm.New(rsm.Config{
		Paxos:           modpaxos.Config{Delta: cfg.Delta},
		MaxBatch:        cfg.MaxBatch,
		MaxInFlight:     cfg.MaxInFlight,
		MaxQueue:        cfg.MaxQueue,
		Linger:          cfg.Linger,
		FailoverTimeout: cfg.FailoverTimeout,
		SnapshotEvery:   cfg.CompactEvery,
		NewApplier: func(id consensus.ProcessID) rsm.Applier {
			recMu.Lock()
			defer recMu.Unlock()
			if len(recorders[id].Entries()) > 0 {
				recorders[id] = &Recorder{}
			}
			return recorders[id]
		},
	})
	if err != nil {
		return nil, fmt.Errorf("rsmbench: %w", err)
	}

	clients := make([]*clientProc, cfg.Clients)
	factory := func(id consensus.ProcessID, _ int, proposal consensus.Value) consensus.Process {
		if int(id) < cfg.N {
			// The replica group is the first N nodes; the substrate's total
			// node count includes clients and must not leak into quorum math
			// or broadcasts.
			return &scopedProc{inner: rsmFactory(id, cfg.N, proposal), n: cfg.N}
		}
		cp := newClientProc(cfg, id)
		clients[int(id)-cfg.N] = cp
		return cp
	}
	proposals := make([]consensus.Value, total)
	clientIDs := make([]consensus.ProcessID, cfg.Clients)
	for i := 0; i < cfg.Clients; i++ {
		id := consensus.ProcessID(cfg.N + i)
		clientIDs[i] = id
		proposals[id] = doneValue
	}

	res := &Result{
		Backend: cfg.Backend, N: cfg.N, Clients: cfg.Clients, Ops: cfg.Ops, Keys: cfg.Keys,
		Seed: cfg.Seed, Linger: cfg.Linger, OpenInterval: cfg.OpenInterval,
		Restarts: cfg.Restarts, CompactEvery: cfg.CompactEvery, FailoverTimeout: cfg.FailoverTimeout,
		collector: collector,
	}
	// Echo the effective serving-path knobs (rsm defaults applied).
	eff := rsm.Config{MaxBatch: cfg.MaxBatch, MaxInFlight: cfg.MaxInFlight, MaxQueue: cfg.MaxQueue}
	res.MaxBatch, res.MaxInFlight, res.MaxQueue = effectiveKnobs(eff)

	switch cfg.Backend {
	case BackendSim:
		err = runSim(cfg, total, collector, factory, proposals, clientIDs, res)
	case BackendLive, BackendLiveTCP:
		err = runLive(cfg, total, collector, factory, proposals, clientIDs, res)
	default:
		return nil, fmt.Errorf("rsmbench: unknown backend %q", cfg.Backend)
	}
	if err != nil {
		return nil, err
	}

	for _, cp := range clients {
		res.TotalOps += int64(cp.acked)
		res.Busy += cp.busy
		res.Retries += cp.retries
	}
	if res.Duration > 0 {
		res.OpsPerSec = float64(res.TotalOps) / res.Duration.Seconds()
	}
	if h, ok := collector.HistogramCopy(trace.HistCommitLatency); ok && h.Count() > 0 {
		s := h.Snapshot(trace.HistCommitLatency)
		res.Commit = &s
	}
	if h, ok := collector.HistogramCopy(trace.HistSlotLatency); ok && h.Count() > 0 {
		s := h.Snapshot(trace.HistSlotLatency)
		res.Slot = &s
	}
	if h, ok := collector.HistogramCopy(trace.HistBatchSize); ok && h.Count() > 0 {
		s := h.Snapshot(trace.HistBatchSize)
		res.Batch = &s
	}
	if h, ok := collector.HistogramCopy(trace.HistFailoverLatency); ok && h.Count() > 0 {
		s := h.Snapshot(trace.HistFailoverLatency)
		res.Failover = &s
	}
	if h, ok := collector.HistogramCopy(trace.HistCatchupLatency); ok && h.Count() > 0 {
		s := h.Snapshot(trace.HistCatchupLatency)
		res.Catchup = &s
	}
	res.Shed = int64(len(collector.Series("rsm-shed")))
	if n := len(recorders[0].Entries()); n > 0 {
		res.Slots = recorders[0].Entries()[n-1].Slot + 1
	}
	res.Violations = append(res.Violations, checkInvariants(cfg, recorders, clients, res.Completed)...)
	return res, nil
}

// effectiveKnobs reports the serving-path knobs after rsm defaulting, so
// reports show the values that actually ran.
func effectiveKnobs(c rsm.Config) (batch, inflight, queue int) {
	batch, inflight, queue = c.MaxBatch, c.MaxInFlight, c.MaxQueue
	if batch <= 0 {
		batch = 8
	}
	if inflight <= 0 {
		inflight = 4
	}
	if queue <= 0 {
		queue = 1024
	}
	return
}

func runSim(cfg Config, total int, collector *trace.Collector,
	factory consensus.Factory, proposals []consensus.Value,
	clientIDs []consensus.ProcessID, res *Result) error {

	eng := sim.NewEngine(cfg.Seed)
	nw, err := simnet.New(eng, simnet.Config{
		N: total, Delta: cfg.Delta, TS: 0, Collector: collector,
	}, factory, proposals)
	if err != nil {
		return fmt.Errorf("rsmbench: %w", err)
	}
	nw.Start()
	// A crashed leader's group fails over; a restarted replica rejoins and
	// catches up (via snapshot when compaction outran it).
	if err := harness.ScheduleRestarts(nw, cfg.Restarts, cfg.N, cfg.Delta, 0); err != nil {
		return fmt.Errorf("rsmbench: %w", err)
	}
	checker := nw.Checker()
	res.Completed = eng.RunUntil(func() bool {
		return checker.AllDecided(clientIDs)
	}, cfg.Horizon)
	if d, ok := checker.LastDecisionAmong(clientIDs); ok && res.Completed {
		res.Duration = d
	} else {
		res.Duration = eng.Now()
	}
	if cfg.chaos() {
		// Settle window: let the restarted replica finish catching up and
		// trailing snapshots truncate, so the log-key census is stable.
		eng.Run(eng.Now() + 50*cfg.Delta)
		for i := 0; i < cfg.N; i++ {
			res.LogKeys = append(res.LogKeys, countLogKeys(nw.Node(consensus.ProcessID(i)).Store()))
		}
	}
	collector.RecordRunPhases(0, eng.Now())
	return nil
}

// countLogKeys reports how many rsmlog/ decision records a replica's store
// holds — the quantity compaction is meant to bound.
func countLogKeys(st storage.Store) int64 {
	keys, err := st.Keys()
	if err != nil {
		return -1
	}
	var n int64
	for _, k := range keys {
		if strings.HasPrefix(k, storage.KeyRSMLogPrefix) {
			n++
		}
	}
	return n
}

func runLive(cfg Config, total int, collector *trace.Collector,
	factory consensus.Factory, proposals []consensus.Value,
	clientIDs []consensus.ProcessID, res *Result) error {

	var transport live.Transport
	if cfg.Backend == BackendLiveTCP {
		ids := make([]consensus.ProcessID, total)
		for i := range ids {
			ids[i] = consensus.ProcessID(i)
		}
		tcp, err := live.NewTCPTransport(ids)
		if err != nil {
			return fmt.Errorf("rsmbench: %w", err)
		}
		transport = tcp
	} else {
		transport = live.NewMemTransport(live.MemTransportConfig{
			MaxDelay: cfg.Delta, Seed: cfg.Seed, Collector: collector,
		})
	}
	cluster, err := live.NewCluster(live.Config{
		N: total, Delta: cfg.Delta, TS: 0,
		Transport: transport, Collector: collector, Seed: cfg.Seed,
	}, factory, proposals)
	if err != nil {
		_ = transport.Close()
		return fmt.Errorf("rsmbench: %w", err)
	}
	// The schedule runs on wall-clock timers anchored at Start; Stop cancels
	// what has not fired.
	if err := harness.ScheduleRestarts(cluster, cfg.Restarts, cfg.N, cfg.Delta, 0); err != nil {
		_ = cluster.Stop()
		return fmt.Errorf("rsmbench: %w", err)
	}
	started := time.Now()
	cluster.Start()
	res.Completed = cluster.WaitDecidedAmong(clientIDs, cfg.Horizon) == nil
	if cfg.chaos() {
		// Settle window mirroring the sim backend: give the restarted
		// replica time to catch up and trailing snapshots time to truncate.
		time.Sleep(50 * cfg.Delta)
	}
	if d, ok := cluster.Checker().LastDecisionAmong(clientIDs); ok && res.Completed {
		res.Duration = d
	} else {
		res.Duration = time.Since(started)
	}
	// Stop joins the node goroutines so the recorders and client counters
	// are safe to read afterwards.
	if err := cluster.Stop(); err != nil {
		return fmt.Errorf("rsmbench: %w", err)
	}
	if cfg.chaos() {
		for i := 0; i < cfg.N; i++ {
			res.LogKeys = append(res.LogKeys, countLogKeys(cluster.Node(consensus.ProcessID(i)).Store()))
		}
	}
	_ = transport.Close()
	collector.RecordRunPhases(0, time.Since(started))
	return nil
}

// checkInvariants verifies the run's correctness conditions from the
// per-replica apply recorders:
//
//  1. apply order: each replica applied (slot, idx) in strictly increasing
//     order;
//  2. session dedup: no (client, seq) with seq > 0 applied twice at any
//     replica;
//  3. agreement: all replicas applied the same command sequence (common
//     prefix — replicas may trail);
//  4. completeness (completed runs): the leader applied every client
//     operation exactly once.
func checkInvariants(cfg Config, recorders []*Recorder, clients []*clientProc, completed bool) []string {
	var out []string
	logs := make([][]ApplyRecord, len(recorders))
	for i, rec := range recorders {
		logs[i] = rec.Entries()
	}
	for id, entries := range logs {
		for i := 1; i < len(entries); i++ {
			a, b := entries[i-1], entries[i]
			if b.Slot < a.Slot || (b.Slot == a.Slot && b.Idx <= a.Idx) {
				out = append(out, fmt.Sprintf(
					"apply-order: replica %d applied slot %d idx %d after slot %d idx %d",
					id, b.Slot, b.Idx, a.Slot, a.Idx))
				break
			}
		}
		seen := make(map[[2]int64]int64, len(entries))
		for _, e := range entries {
			if e.Seq == 0 {
				continue
			}
			key := [2]int64{e.Client, int64(e.Seq)}
			if prev, ok := seen[key]; ok {
				out = append(out, fmt.Sprintf(
					"dedup: replica %d applied client %d seq %d twice (slots %d and %d)",
					id, e.Client, e.Seq, prev, e.Slot))
			} else {
				seen[key] = e.Slot
			}
		}
	}
	if cfg.chaos() {
		return append(out, checkChaosInvariants(cfg, logs, clients, completed)...)
	}
	for id := 1; id < len(logs); id++ {
		n := len(logs[0])
		if len(logs[id]) < n {
			n = len(logs[id])
		}
		for i := 0; i < n; i++ {
			if logs[0][i] != logs[id][i] {
				out = append(out, fmt.Sprintf(
					"agreement: replica %d log[%d] = %+v, replica 0 has %+v",
					id, i, logs[id][i], logs[0][i]))
				break
			}
		}
	}
	if !completed {
		done := 0
		for _, cp := range clients {
			if cp.done {
				done++
			}
		}
		out = append(out, fmt.Sprintf("timeout: %d/%d clients completed within %v",
			done, len(clients), cfg.Horizon))
		return out
	}
	leader := logs[0]
	bySession := make(map[int64][]uint64)
	for _, e := range leader {
		if e.Seq != 0 {
			bySession[e.Client] = append(bySession[e.Client], e.Seq)
		}
	}
	for i := 0; i < cfg.Clients; i++ {
		client := int64(cfg.N + i)
		seqs := bySession[client]
		if len(seqs) != cfg.Ops {
			out = append(out, fmt.Sprintf(
				"completeness: leader applied %d ops for client %d, want %d",
				len(seqs), client, cfg.Ops))
			continue
		}
		sorted := append([]uint64(nil), seqs...)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
		for j, s := range sorted {
			if s != uint64(j+1) {
				out = append(out, fmt.Sprintf(
					"completeness: client %d seqs not 1..%d (saw %d at position %d)",
					client, cfg.Ops, s, j))
				break
			}
		}
	}
	return out
}

// checkChaosInvariants replaces the prefix-agreement and leader-complete
// checks for runs with crashes or compaction. A restarted replica's recorder
// starts at its replay point (possibly a snapshot base), and the crashed
// leader's log may genuinely trail, so agreement is judged slot-aligned —
// any position applied by two replicas must match — exactly-once is judged
// globally by (client, seq), and completeness on the union of all replicas.
func checkChaosInvariants(cfg Config, logs [][]ApplyRecord, clients []*clientProc, completed bool) []string {
	var out []string
	type pos struct {
		Slot int64
		Idx  int
	}
	byPos := make(map[pos]ApplyRecord)
	firstAt := make(map[pos]int)
	seqPos := make(map[[2]int64]pos)
	for id, entries := range logs {
		for _, e := range entries {
			p := pos{e.Slot, e.Idx}
			if prev, ok := byPos[p]; ok {
				if prev != e {
					out = append(out, fmt.Sprintf(
						"agreement: slot %d idx %d is %+v at replica %d but %+v at replica %d",
						e.Slot, e.Idx, e, id, prev, firstAt[p]))
				}
			} else {
				byPos[p] = e
				firstAt[p] = id
			}
			if e.Seq == 0 {
				continue
			}
			key := [2]int64{e.Client, int64(e.Seq)}
			if prev, ok := seqPos[key]; ok {
				if prev != p {
					out = append(out, fmt.Sprintf(
						"exactly-once: client %d seq %d applied at slot %d idx %d and at slot %d idx %d",
						e.Client, e.Seq, prev.Slot, prev.Idx, e.Slot, e.Idx))
				}
			} else {
				seqPos[key] = p
			}
		}
	}
	if !completed {
		done := 0
		for _, cp := range clients {
			if cp.done {
				done++
			}
		}
		return append(out, fmt.Sprintf("timeout: %d/%d clients completed within %v",
			done, len(clients), cfg.Horizon))
	}
	for i := 0; i < cfg.Clients; i++ {
		client := int64(cfg.N + i)
		for s := 1; s <= cfg.Ops; s++ {
			if _, ok := seqPos[[2]int64{client, int64(s)}]; !ok {
				out = append(out, fmt.Sprintf(
					"completeness: client %d seq %d was never applied at any replica", client, s))
			}
		}
	}
	return out
}
