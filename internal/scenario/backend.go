package scenario

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/harness"
	"repro/internal/live"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Backend is an execution substrate for scenario cells: something that can
// take the harness configuration of one (protocol, seed) cell and produce a
// harness.Result. The deterministic simulator and the live goroutine
// runtime (memory or TCP transport) are the built-ins; because every
// backend reports through the same Result schema, checks, renderers, and
// grids work verbatim whichever substrate a Spec names.
type Backend interface {
	// Name is the identifier Specs and CLIs select the backend by.
	Name() string
	// Supports reports (with a nil error) whether the backend can execute
	// the protocol. Spec defaulting uses it to pick the runnable subset;
	// explicitly listed protocols fail the run instead.
	Supports(p harness.Protocol) error
	// Run executes one cell. Configurations carrying features the backend
	// cannot honor must return an error, not silently degrade.
	Run(cfg harness.Config) (harness.Result, error)
}

// The built-in backend names (Spec.Backend, `-backend` on the CLIs).
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

// backends is the fixed registry of execution substrates.
var backends = map[string]Backend{
	BackendSim:     simBackend{},
	BackendLive:    liveBackend{},
	BackendLiveTCP: liveBackend{tcp: true},
}

// backendFor resolves a backend name ("" means sim).
func backendFor(name string) (Backend, error) {
	if name == "" {
		name = BackendSim
	}
	b, ok := backends[name]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown backend %q (want %v)", name, BackendNames())
	}
	return b, nil
}

// BackendNames lists the selectable backends, sorted — for CLI usage
// strings and error messages.
func BackendNames() []string {
	names := make([]string, 0, len(backends))
	for name := range backends {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// simBackend executes cells on the deterministic simulator via the harness.
type simBackend struct{}

// Name implements Backend.
func (simBackend) Name() string { return BackendSim }

// Supports implements Backend: the simulator runs every registered
// protocol.
func (simBackend) Supports(p harness.Protocol) error {
	_, err := protocol.Get(string(p))
	return err
}

// Run implements Backend.
func (simBackend) Run(cfg harness.Config) (harness.Result, error) {
	return harness.Run(cfg)
}

// Cluster is one run one level below Backend.Run: processes from any factory,
// on any backend, waited on as the caller chooses. The live backend's cells
// and rsm-bench both run through it, so the transport and the cluster are
// assembled here and nowhere else.
type Cluster struct {
	// Backend names the substrate ("" means sim).
	Backend string
	Delta   time.Duration
	TS      time.Duration
	// Policy is the pre-TS network policy, defaulted as harness.Run
	// defaults it.
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
	if c.Policy == nil {
		if c.TS > 0 {
			c.Policy = simnet.DropAll{}
		} else {
			c.Policy = simnet.Synchronous{}
		}
	}
	switch c.Backend {
	case "", BackendSim:
		return c.runSim()
	case BackendLive:
		return c.runLive(false)
	case BackendLiveTCP:
		return c.runLive(true)
	}
	if _, err := backendFor(c.Backend); err != nil {
		return false, nil, 0, err
	}
	return false, nil, 0, fmt.Errorf("scenario: backend %q cannot run a Cluster", c.Backend)
}

// runSim is Run on a fresh simulator engine.
func (c Cluster) runSim() (decided bool, checker *consensus.SafetyChecker, waited time.Duration, err error) {
	eng := sim.NewEngine(c.Seed)
	nw, err := simnet.New(eng, simnet.Config{
		N: len(c.Proposals), Delta: c.Delta, TS: c.TS, Policy: c.Policy, Collector: c.Collector,
	}, c.Factory, c.Proposals)
	if err != nil {
		return false, nil, 0, err
	}
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
		Policy: c.Policy, TS: c.TS, Delta: c.Delta, Seed: c.Seed, OnDrop: c.Collector.MessageDropped,
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
