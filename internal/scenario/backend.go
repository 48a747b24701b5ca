package scenario

import (
	"fmt"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/harness"
	"repro/internal/live"
	"repro/internal/protocol"
	"repro/internal/simnet"
	"repro/internal/storage"
	"repro/internal/trace"
)

// The built-in backend names (Spec.Backend, `-backend` on the CLIs). Every
// backend reports through the same harness.Result schema.
const (
	// BackendSim is the deterministic simulator — the default.
	BackendSim = "sim"
	// BackendLive runs goroutines, real clocks, and the in-memory
	// transport under policy-driven fault injection.
	BackendLive = "live"
	// BackendLiveTCP is BackendLive over loopback TCP: length-prefixed
	// binary frames, each message in its registered wire codec.
	BackendLiveTCP = "live-tcp"
)

// BackendNames lists the selectable backends, sorted — for CLI usage
// strings and error messages.
func BackendNames() []string {
	return []string{BackendLive, BackendLiveTCP, BackendSim}
}

// unknownBackend is the error for a name outside BackendNames.
func unknownBackend(name string) error {
	return fmt.Errorf("scenario: unknown backend %q (want %v)", name, BackendNames())
}

// runCell executes one (protocol, seed) cell on the named backend.
func runCell(backend string, cfg harness.Config) (harness.Result, error) {
	switch backend {
	case BackendSim:
		return harness.Run(cfg)
	case BackendLive, BackendLiveTCP:
		return runLiveCell(backend, cfg)
	}
	return harness.Result{}, unknownBackend(backend)
}

// supports reports (with a nil error) whether the backend can execute the
// protocol: the live backends lack the simulator's leader oracle. An unknown
// backend passes here and fails in runCell; refused here, it would narrow a
// defaulted protocol set to an empty run that passes.
func supports(backend string, p harness.Protocol) error {
	d, err := protocol.Get(string(p))
	if err != nil {
		return err
	}
	if d.NeedsLeaderOracle && backend != BackendSim {
		return fmt.Errorf("scenario: %q needs the simulator's leader oracle; the %s backend cannot provide one", p, backend)
	}
	return nil
}

// Cluster is one run one level below a cell: processes from any factory, on
// any backend, waited on as the caller chooses. The live cells and rsm-bench
// both run through it, so every live cluster is assembled here and nowhere
// else; its simulated runs are built by harness.Simulate.
type Cluster struct {
	// Backend names the substrate ("" means sim).
	Backend string
	Delta   time.Duration
	TS      time.Duration
	// Policy is the pre-TS network policy (nil takes harness.PreTSPolicy's
	// default, as harness.Run does).
	Policy  simnet.Policy
	Seed    int64
	Horizon time.Duration
	// Restarts is the crash/restart schedule, checked against the first
	// Group processes (the replica group); the cluster has one process per
	// proposal.
	Restarts  []harness.Restart
	Group     int
	Collector *trace.Collector
	Factory   consensus.Factory
	Proposals []consensus.Value
	// Await lists the processes whose decisions end the run.
	Await []consensus.ProcessID
	// Settle is how long the run goes on after the wait; Stores, when set,
	// then sees every process's store.
	Settle time.Duration
	Stores func(consensus.ProcessID, storage.Store)
}

// Run starts the cluster and waits until every awaited process has decided
// or the horizon passes. It stops the cluster before it returns, so the
// collector is final. waited is when the wait ended: virtual time on the
// simulator, time since start on the live backends.
func (c Cluster) Run() (decided bool, checker *consensus.SafetyChecker, waited time.Duration, err error) {
	if c.Stores == nil {
		c.Stores = func(consensus.ProcessID, storage.Store) {}
	}
	switch c.Backend {
	case "", BackendSim:
		return c.runSim()
	case BackendLive, BackendLiveTCP:
		return c.runLive(c.Backend == BackendLiveTCP)
	}
	return false, nil, 0, unknownBackend(c.Backend)
}

// runSim is Run on a fresh simulator engine.
func (c Cluster) runSim() (decided bool, checker *consensus.SafetyChecker, waited time.Duration, err error) {
	nw, err := harness.Simulate(harness.Config{
		N: len(c.Proposals), Delta: c.Delta, TS: c.TS, Policy: c.Policy, Seed: c.Seed,
	}, c.Factory, c.Proposals, c.Collector)
	if err != nil {
		return false, nil, 0, err
	}
	eng := nw.Engine()
	nw.Start()
	if err := harness.ScheduleRestarts(nw, c.Restarts, c.Group, c.Delta, c.TS); err != nil {
		return false, nil, 0, err
	}
	checker = nw.Checker()
	decided = eng.RunUntil(func() bool { return checker.AllDecided(c.Await) }, c.Horizon)
	waited = eng.Now()
	if c.Settle > 0 {
		eng.Run(eng.Now() + c.Settle)
	}
	for _, id := range nw.AllIDs() {
		c.Stores(id, nw.Node(id).Store())
	}
	c.Collector.RecordRunPhases(c.TS, eng.Now())
	return decided, checker, waited, nil
}

// runLive is Run on goroutines and the host clock. The inner transport is
// the stable network, delivering within δ; the PolicyTransport around it
// owns everything before TS, seeded like the simulator so fault patterns
// are reproducible.
func (c Cluster) runLive(tcp bool) (decided bool, checker *consensus.SafetyChecker, waited time.Duration, err error) {
	var inner live.Transport
	if tcp {
		ids := make([]consensus.ProcessID, len(c.Proposals))
		for i := range ids {
			ids[i] = consensus.ProcessID(i)
		}
		if inner, err = live.NewTCPTransport(ids); err != nil {
			return false, nil, 0, err
		}
	} else {
		inner = live.NewMemTransport(live.MemTransportConfig{MaxDelay: c.Delta, Seed: c.Seed, Collector: c.Collector})
	}
	transport := live.NewPolicyTransport(inner, live.PolicyTransportConfig{
		Policy: harness.PreTSPolicy(c.Policy, c.TS), TS: c.TS, Delta: c.Delta, Seed: c.Seed, OnDrop: c.Collector.MessageDropped,
	})
	cluster, err := live.NewCluster(live.Config{
		N: len(c.Proposals), Delta: c.Delta, TS: c.TS,
		Transport: transport, Collector: c.Collector, Seed: c.Seed,
	}, c.Factory, c.Proposals)
	if err != nil {
		_ = transport.Close()
		return false, nil, 0, err
	}
	// The schedule becomes wall-clock timers anchored at Start; Stop
	// cancels what has not fired.
	if err := harness.ScheduleRestarts(cluster, c.Restarts, c.Group, c.Delta, c.TS); err != nil {
		_ = cluster.Stop()
		return false, nil, 0, err
	}
	started := time.Now() //repro:allow detlint live backend measures wall time by design
	cluster.Start()
	decided = cluster.WaitDecidedAmong(c.Await, c.Horizon) == nil
	waited = time.Since(started)                           //repro:allow detlint live backend measures wall time by design
	time.Sleep(c.Settle)                                   //repro:allow detlint live backend measures wall time by design
	c.Collector.RecordRunPhases(c.TS, time.Since(started)) //repro:allow detlint live backend measures wall time by design
	// Stop joins every node goroutine: no process sends, decides or touches
	// its store after it.
	if err := cluster.Stop(); err != nil {
		return false, nil, 0, err
	}
	for _, id := range cluster.AllIDs() {
		c.Stores(id, cluster.Node(id).Store())
	}
	return decided, cluster.Checker(), waited, nil
}
