package scenario

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/harness"
	"repro/internal/protocol"
	"repro/internal/simnet"
)

// liveSpec is a small, fast regime for wall-clock tests: a real unstable
// period of 50ms under 50% chaos, then stabilization.
func liveSpec(backend string) Spec {
	return Spec{
		Name:        "live-smoke",
		Description: "wall-clock chaos then stabilization",
		Backend:     backend,
		N:           3,
		Delta:       5 * time.Millisecond,
		TS:          50 * time.Millisecond,
		Net: func(n int, delta, ts time.Duration) simnet.Policy {
			return simnet.Chaos{DropProb: 0.5, MaxDelay: ts}
		},
		Seeds:   1,
		Horizon: 10 * time.Second,
	}
}

// TestLiveBackendRunsScenarioSpec is the tentpole's acceptance path: an
// unchanged declarative Spec executes on the live runtime and produces the
// same Report schema the simulator produces — protocol sections, latency
// against wall-clock TS, message counts, check evaluation.
func TestLiveBackendRunsScenarioSpec(t *testing.T) {
	rep, err := Run(liveSpec(BackendLive))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Backend != BackendLive {
		t.Errorf("report backend = %q, want %q", rep.Backend, BackendLive)
	}
	// The defaulted protocol set excludes simulator-oracle protocols.
	if len(rep.Protocols) == 0 {
		t.Fatal("no protocol sections in live report")
	}
	for _, pr := range rep.Protocols {
		if pr.Protocol == harness.TraditionalPaxos {
			t.Errorf("live backend defaulted to %q, which needs the simulated leader oracle", pr.Protocol)
		}
		if pr.Decided != pr.Seeds {
			t.Errorf("%s: %d/%d decided on the live backend", pr.Protocol, pr.Decided, pr.Seeds)
		}
		if pr.Latency.Max <= 0 {
			t.Errorf("%s: live latency after TS = %v, want > 0 (wall-clock decisions land after stabilization)", pr.Protocol, pr.Latency.Max)
		}
		if pr.Messages.Median <= 0 {
			t.Errorf("%s: no messages counted", pr.Protocol)
		}
	}
	if !rep.Passed() {
		t.Errorf("live run violated invariants: %+v", rep.Violations)
	}
	// Renderers work verbatim on live reports.
	if txt := rep.Text(); !strings.Contains(txt, "backend=live") {
		t.Errorf("text report does not name the backend:\n%s", txt)
	}
	if _, err := rep.JSON(); err != nil {
		t.Errorf("JSON rendering: %v", err)
	}
}

// TestLiveTCPBackendRunsScenarioSpec runs the same regime over real
// loopback sockets — the policy wrapper injects the identical fault model
// in front of the TCP transport.
func TestLiveTCPBackendRunsScenarioSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping wall-clock TCP cluster scenario in -short mode")
	}
	spec := liveSpec(BackendLiveTCP)
	spec.Protocols = []harness.Protocol{harness.ModifiedPaxos}
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("live-tcp run violated invariants: %+v", rep.Violations)
	}
	if rep.Protocols[0].Decided != rep.Protocols[0].Seeds {
		t.Errorf("%d/%d decided over TCP", rep.Protocols[0].Decided, rep.Protocols[0].Seeds)
	}
}

// TestLiveBackendRunsRestartSchedule pins the wall-clock fault schedule: a
// process crashed before TS and restarted after it still decides (via
// decision gossip), and the run reports success.
func TestLiveBackendRunsRestartSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping wall-clock crash/restart scenario in -short mode")
	}
	spec := liveSpec(BackendLive)
	spec.Protocols = []harness.Protocol{harness.ModifiedPaxos}
	spec.Restarts = []harness.Restart{
		{Proc: 2, CrashAt: harness.AtDeltas(2), RestartAt: harness.AfterTS(10)},
	}
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("crash/restart live run violated invariants: %+v", rep.Violations)
	}
}

// inits counts Init calls of the hidden "init-probe" protocol, whose
// processes do nothing else.
var inits atomic.Int64

type initProbe struct{}

func (initProbe) Init(consensus.Environment)                           { inits.Add(1) }
func (initProbe) HandleMessage(consensus.ProcessID, consensus.Message) {}
func (initProbe) HandleTimer(consensus.TimerID)                        {}

func init() {
	protocol.MustRegister(protocol.Descriptor{
		Name: "init-probe", Hidden: true,
		New: func(protocol.Params) (consensus.Factory, error) {
			return func(consensus.ProcessID, int, consensus.Value) consensus.Process { return initProbe{} }, nil
		},
	})
}

// TestLiveBackendRejectsBadScheduleBeforeStart: a schedule that cannot
// happen fails the run before any process starts, and nothing is left
// running.
func TestLiveBackendRejectsBadScheduleBeforeStart(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg, err := liveSpec(BackendLive).withDefaults().config("init-probe", 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Restarts = []harness.Restart{
		{Proc: 1, CrashAt: harness.AtDeltas(1), RestartAt: harness.AfterTS(1)},
		{Proc: 2, CrashAt: harness.AfterTS(2), RestartAt: harness.AfterTS(1)},
	}
	res, err := runLiveCell(BackendLive, cfg)
	if err == nil || !strings.Contains(err.Error(), "before its crash") {
		t.Fatalf("got %v, want the restart-before-crash error", err)
	}
	if res.Collector != nil || inits.Load() != 0 {
		t.Errorf("a rejected run started %d processes and returned %+v", inits.Load(), res)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the rejected run, %d before", n, before)
	}
}

// TestLiveBackendRejectsSimulatorOnlyFeatures pins the refusal contract:
// regimes whose machinery needs the simulator fail loudly instead of
// running a silently weaker experiment.
func TestLiveBackendRejectsSimulatorOnlyFeatures(t *testing.T) {
	cases := map[string]func(*Spec){
		"adversary": func(s *Spec) {
			s.Protocols = []harness.Protocol{harness.ModifiedPaxos}
			s.Adversary = AdversaryProfile{Attack: harness.ObsoleteBallots}
		},
		"clock-profile": func(s *Spec) {
			s.Protocols = []harness.Protocol{harness.ModifiedPaxos}
			s.Clocks = ClockProfile{Rho: 0.1, Extremes: true}
		},
		"worst-case-delays": func(s *Spec) {
			s.Protocols = []harness.Protocol{harness.ModifiedPaxos}
			s.WorstCaseDelays = true
		},
		"assassin": func(s *Spec) {
			s.Protocols = []harness.Protocol{harness.ModifiedPaxos}
			s.Assassins = []AssassinateOnSeries{{Series: "session", Victim: VictimEmitter}}
		},
		"oracle-protocol": func(s *Spec) {
			s.Protocols = []harness.Protocol{harness.TraditionalPaxos}
		},
	}
	for name, mutate := range cases {
		spec := liveSpec(BackendLive)
		mutate(&spec)
		if _, err := Run(spec); err == nil {
			t.Errorf("%s: live backend accepted a simulator-only feature", name)
		}
	}
}

// TestUnknownBackendFailsTheRun pins name resolution.
func TestUnknownBackendFailsTheRun(t *testing.T) {
	spec := liveSpec("hologram")
	if _, err := Run(spec); err == nil || !strings.Contains(err.Error(), "unknown backend") {
		t.Errorf("unknown backend: got err %v", err)
	}
}

// TestBackendNamesStable pins the CLI-visible backend set.
func TestBackendNamesStable(t *testing.T) {
	got := strings.Join(BackendNames(), ",")
	if got != "live,live-tcp,sim" {
		t.Errorf("BackendNames() = %q", got)
	}
}

// TestLiveBackendResultIsFinal pins that a live cell's Result is built after
// the cluster stopped: the message count it reports is the collector's final
// count, not a snapshot taken while nodes were still sending.
func TestLiveBackendResultIsFinal(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		res, err := runLiveCell(BackendLive, harness.Config{
			Protocol: harness.ModifiedPaxos, N: 3, Delta: 5 * time.Millisecond, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Decided {
			t.Errorf("seed %d: undecided", seed)
		}
		if total := res.Collector.TotalSent(); res.Messages != total {
			t.Errorf("seed %d: Result.Messages = %d, collector counted %d", seed, res.Messages, total)
		}
	}
}

// liveChaosRegime is the regime `scenario run -backend live[-tcp]
// chaos-monkey` runs for one protocol: pre-TS chaos dropping each message
// with probability loss, healing into δ-bounded delivery at TS.
func liveChaosRegime(backend string, p harness.Protocol, ts time.Duration, loss float64) Spec {
	return Spec{
		Name:        "live-chaos",
		Description: "wall-clock chaos then stabilization",
		Backend:     backend,
		Protocols:   []harness.Protocol{p},
		N:           3,
		Delta:       10 * time.Millisecond,
		TS:          ts,
		Net: func(n int, delta, ts time.Duration) simnet.Policy {
			return simnet.Chaos{DropProb: loss}
		},
		Seeds:    1,
		BaseSeed: 1,
		Horizon:  30 * time.Second,
	}
}

// runLiveChaosRegime runs one protocol through liveChaosRegime and requires
// a clean, decided run on the named backend.
func runLiveChaosRegime(t *testing.T, backend string, p harness.Protocol, ts time.Duration, loss float64) {
	t.Helper()
	rep, err := Run(liveChaosRegime(backend, p, ts, loss))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Backend != backend {
		t.Errorf("report backend = %q, want %q", rep.Backend, backend)
	}
	if !rep.Passed() {
		t.Errorf("%s on %s violated invariants: %+v", p, backend, rep.Violations)
	}
	if len(rep.Protocols) != 1 || rep.Protocols[0].Protocol != p {
		t.Fatalf("report sections %+v, want one for %s", rep.Protocols, p)
	}
	if pr := rep.Protocols[0]; pr.Decided != pr.Seeds {
		t.Errorf("%s on %s: %d/%d decided", p, backend, pr.Decided, pr.Seeds)
	}
}

// TestLiveChaosRegimeOverMemTransport runs modified Paxos through 50ms of
// 30% pre-TS loss on in-process channels.
func TestLiveChaosRegimeOverMemTransport(t *testing.T) {
	runLiveChaosRegime(t, BackendLive, harness.ModifiedPaxos, 50*time.Millisecond, 0.3)
}

// TestLiveChaosRegimeOverTCP runs modified Paxos through 300ms of 50%
// pre-TS loss over loopback sockets.
func TestLiveChaosRegimeOverTCP(t *testing.T) {
	runLiveChaosRegime(t, BackendLiveTCP, harness.ModifiedPaxos, 300*time.Millisecond, 0.5)
}

// TestLiveChaosRegimeBConsensus runs the B-Consensus protocol through 30ms
// of 50% pre-TS loss on in-process channels.
func TestLiveChaosRegimeBConsensus(t *testing.T) {
	runLiveChaosRegime(t, BackendLive, harness.ModifiedBConsensus, 30*time.Millisecond, 0.5)
}

// TestLiveChaosRegimeRefusesOracleProtocol pins that both live backends
// refuse traditional Paxos, which needs the simulator's leader oracle, and
// say why.
func TestLiveChaosRegimeRefusesOracleProtocol(t *testing.T) {
	for _, backend := range []string{BackendLive, BackendLiveTCP} {
		_, err := Run(liveChaosRegime(backend, harness.TraditionalPaxos, 50*time.Millisecond, 0.5))
		if err == nil || !strings.Contains(err.Error(), "leader oracle") {
			t.Errorf("%s: got err %v, want a leader-oracle refusal", backend, err)
		}
	}
}
