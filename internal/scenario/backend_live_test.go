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
	res, err := liveBackend{}.Run(cfg)
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
