package rsmbench

import (
	"fmt"
	"strings"
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

// Run executes one benchmark configuration and returns its result. Every
// replica incarnation applies into one rsm.History, which checks apply
// order, agreement and exactly-once as the run goes, and gaps and lost acks
// at its end; its findings, and a timeout, land in Result.Violations rather
// than the error, which is reserved for configurations that cannot run at
// all.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	total := cfg.N + cfg.Clients

	collector := trace.NewCollector()
	collector.EnableHistograms()
	if cfg.Observe {
		collector.EnableSpans(cfg.SpanCapacity)
	}

	hist := new(rsm.History)
	rsmFactory, err := rsm.New(rsm.Config{
		Paxos:           modpaxos.Config{Delta: cfg.Delta},
		MaxBatch:        cfg.MaxBatch,
		MaxInFlight:     cfg.MaxInFlight,
		MaxQueue:        cfg.MaxQueue,
		Linger:          cfg.Linger,
		FailoverTimeout: cfg.FailoverTimeout,
		SnapshotEvery:   cfg.CompactEvery,
		NewApplier:      hist.NewApplier,
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
		cp := newClientProc(cfg, id, hist)
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
		collector: collector, history: hist,
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
	if h, ok := collector.HistogramCopy(trace.HistOutage); ok && h.Count() > 0 {
		s := h.Snapshot(trace.HistOutage)
		res.Outage = &s
	}
	if h, ok := collector.HistogramCopy(trace.HistCatchupLatency); ok && h.Count() > 0 {
		s := h.Snapshot(trace.HistCatchupLatency)
		res.Catchup = &s
	}
	res.Shed = int64(len(collector.Series("rsm-shed")))
	res.Slots = hist.Frontier(0)
	res.Violations = hist.Findings()
	if !res.Completed {
		done := 0
		for _, cp := range clients {
			if cp.done {
				done++
			}
		}
		res.Violations = append(res.Violations, fmt.Sprintf("timeout: %d/%d clients completed within %v",
			done, len(clients), cfg.Horizon))
	}
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
	// Stop joins the node goroutines, so the client counters are safe to
	// read and the history is final.
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
