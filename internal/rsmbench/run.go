package rsmbench

import (
	"fmt"
	"strings"

	"repro/internal/core/consensus"
	"repro/internal/core/modpaxos"
	"repro/internal/rsm"
	"repro/internal/scenario"
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
	collector := trace.NewCollector()
	collector.EnableHistograms()
	if cfg.Observe {
		collector.EnableSpans(0)
	}

	hist := new(rsm.History)
	rcfg := rsm.Config{
		Paxos:           modpaxos.Config{Delta: cfg.Delta},
		MaxBatch:        cfg.MaxBatch,
		MaxInFlight:     cfg.MaxInFlight,
		MaxQueue:        cfg.MaxQueue,
		Linger:          cfg.Linger,
		FailoverTimeout: cfg.FailoverTimeout,
		SnapshotEvery:   cfg.CompactEvery,
		NewApplier:      hist.NewApplier,
	}.WithDefaults()
	rsmFactory, err := rsm.New(rcfg)
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
	proposals := make([]consensus.Value, cfg.N+cfg.Clients)
	clientIDs := make([]consensus.ProcessID, cfg.Clients)
	for i := 0; i < cfg.Clients; i++ {
		id := consensus.ProcessID(cfg.N + i)
		clientIDs[i] = id
		proposals[id] = doneValue
	}

	res := &Result{
		Backend: cfg.Backend, N: cfg.N, Clients: cfg.Clients, Ops: cfg.Ops, Keys: cfg.Keys,
		Seed: cfg.Seed, MaxBatch: rcfg.MaxBatch, MaxInFlight: rcfg.MaxInFlight, MaxQueue: rcfg.MaxQueue,
		Linger: cfg.Linger, OpenInterval: cfg.OpenInterval,
		Restarts: cfg.Restarts, CompactEvery: cfg.CompactEvery, FailoverTimeout: cfg.FailoverTimeout,
		collector: collector, history: hist,
	}
	// The run's TS is 0. A crashed leader's group fails over; a restarted
	// replica rejoins and catches up (via snapshot when compaction outran it).
	cluster := scenario.Cluster{
		Backend: cfg.Backend, Delta: cfg.Delta, Seed: cfg.Seed, Horizon: cfg.Horizon,
		Restarts: cfg.Restarts, Group: cfg.N,
		Collector: collector, Factory: factory, Proposals: proposals, Await: clientIDs,
	}
	if cfg.chaos() {
		// Settle window: let the restarted replica finish catching up and
		// trailing snapshots truncate, so the log-key census is stable.
		cluster.Settle = 50 * cfg.Delta
		cluster.Stores = func(id consensus.ProcessID, st storage.Store) {
			if int(id) < cfg.N {
				res.LogKeys = append(res.LogKeys, countLogKeys(st))
			}
		}
	}
	completed, checker, waited, err := cluster.Run()
	if err != nil {
		return nil, fmt.Errorf("rsmbench: %w", err)
	}
	res.Completed, res.Duration = completed, waited
	if d, ok := checker.LastDecisionAmong(clientIDs); ok && completed {
		res.Duration = d
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
