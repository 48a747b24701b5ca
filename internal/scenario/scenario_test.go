package scenario

import (
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
)

// fastSpec shrinks a spec for unit testing: two seeds, modpaxos only unless
// the spec restricts protocols itself.
func fastSpec(s Spec) Spec {
	s.Seeds = 2
	return s
}

func TestLibraryIsWellFormed(t *testing.T) {
	lib := Library()
	if len(lib) < 10 {
		t.Fatalf("canned library has %d scenarios, want ≥ 10", len(lib))
	}
	seen := make(map[string]bool)
	for _, s := range lib {
		if s.Name == "" || s.Description == "" {
			t.Errorf("scenario %+v lacks a name or description", s.Name)
		}
		if seen[s.Name] {
			t.Errorf("duplicate scenario name %q", s.Name)
		}
		seen[s.Name] = true
	}
	for _, name := range []string{"split-brain-until-TS", "total-partition", "churn-storm"} {
		if _, ok := Lookup(name); !ok {
			t.Errorf("Lookup(%q) failed", name)
		}
	}
	if _, ok := Lookup("no-such-scenario"); ok {
		t.Error("Lookup of unknown name succeeded")
	}
}

func TestSpecDefaults(t *testing.T) {
	s := Spec{Name: "x"}.withDefaults()
	if s.N != 5 || s.Delta != 10*time.Millisecond || s.TS != 200*time.Millisecond {
		t.Errorf("unexpected defaults: N=%d δ=%v TS=%v", s.N, s.Delta, s.TS)
	}
	if len(s.Protocols) != 4 || len(s.Checks) == 0 || s.Seeds != 5 {
		t.Errorf("unexpected defaults: protocols=%v checks=%d seeds=%d", s.Protocols, len(s.Checks), s.Seeds)
	}
	stable := Spec{Name: "y", StableFromStart: true}.withDefaults()
	if stable.TS != 0 {
		t.Errorf("StableFromStart kept TS=%v", stable.TS)
	}
}

func TestRunReportsAndPasses(t *testing.T) {
	spec, _ := Lookup("split-brain-until-TS")
	spec = fastSpec(spec)
	spec.Protocols = []harness.Protocol{harness.ModifiedPaxos, harness.RoundBased}
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("violations: %+v", rep.Violations)
	}
	if len(rep.Protocols) != 2 {
		t.Fatalf("report has %d protocol sections, want 2", len(rep.Protocols))
	}
	for _, pr := range rep.Protocols {
		if pr.Decided != spec.Seeds {
			t.Errorf("%s: %d/%d decided", pr.Protocol, pr.Decided, spec.Seeds)
		}
		if pr.Latency.Count != spec.Seeds {
			t.Errorf("%s: latency summary over %d runs, want %d", pr.Protocol, pr.Latency.Count, spec.Seeds)
		}
		if pr.Messages.Median <= 0 {
			t.Errorf("%s: no messages recorded", pr.Protocol)
		}
	}
	// The modpaxos section carries the ε+3τ+5δ bound.
	if rep.Protocols[0].Bound <= 0 {
		t.Errorf("modpaxos bound missing: %+v", rep.Protocols[0])
	}
	text := rep.Text()
	for _, want := range []string{"split-brain-until-TS", "violations: none", "modpaxos"} {
		if !strings.Contains(text, want) {
			t.Errorf("Text() missing %q:\n%s", want, text)
		}
	}
	js, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js, `"scenario": "split-brain-until-TS"`) {
		t.Errorf("JSON() missing scenario name:\n%s", js)
	}
}

func TestRunIsDeterministic(t *testing.T) {
	spec, _ := Lookup("total-partition")
	spec = fastSpec(spec)
	spec.Protocols = []harness.Protocol{harness.ModifiedPaxos}
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Text() != b.Text() {
		t.Errorf("two identical runs produced different reports:\n%s\nvs\n%s", a.Text(), b.Text())
	}
}

// TestChecksCatchViolations plants a failing invariant and checks it is
// reported rather than swallowed.
func TestChecksCatchViolations(t *testing.T) {
	spec, _ := Lookup("total-partition")
	spec = fastSpec(spec)
	spec.Protocols = []harness.Protocol{harness.ModifiedPaxos}
	spec.Checks = []Check{messageBudget{MaxTotal: 1}} // impossible budget
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != spec.Seeds {
		t.Fatalf("want %d budget violations, got %+v", spec.Seeds, rep.Violations)
	}
	if rep.Violations[0].Check != "message-budget" {
		t.Errorf("violation attributed to %q", rep.Violations[0].Check)
	}
}

// TestFaultValidation ensures fault schedules that reference processes
// outside the cluster fail loudly instead of panicking mid-run.
func TestFaultValidation(t *testing.T) {
	spec := Spec{
		Name:      "bad",
		N:         3,
		Protocols: []harness.Protocol{harness.ModifiedPaxos},
		Restarts:  []harness.Restart{{Proc: 7, CrashAt: harness.AfterTS(1)}},
	}
	if _, err := Run(spec); err == nil {
		t.Fatal("out-of-range fault process should be rejected")
	}
	spec.Restarts = nil
	spec.Assassins = []AssassinateOnSeries{{Series: "round", Victim: -5}}
	if _, err := Run(spec); err == nil {
		t.Fatal("victim below the sentinel range should be rejected, not panic later")
	}
}

// TestAssassinationFires checks the adaptive fault actually kills someone:
// the kill costs the round-based algorithm at least one extra timeout
// relative to an unmolested run.
func TestAssassinationFires(t *testing.T) {
	spec, _ := Lookup("coordinator-assassination")
	spec = fastSpec(spec)
	spec.Protocols = []harness.Protocol{harness.RoundBased}
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("violations: %+v", rep.Violations)
	}
	// The assassinated coordinator costs the round-based algorithm at
	// least one extra timeout relative to an unmolested run.
	clean, _ := Lookup("total-partition")
	clean = fastSpec(clean)
	clean.Protocols = []harness.Protocol{harness.RoundBased}
	cleanRep, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Protocols[0].Latency.Median <= cleanRep.Protocols[0].Latency.Median {
		t.Errorf("assassination did not slow the round-based run: %v vs clean %v",
			rep.Protocols[0].Latency.Median, cleanRep.Protocols[0].Latency.Median)
	}
}

// TestParallelExecutionIsDeterministic pins the worker-pool contract: the
// report must be byte-identical whether the (protocol, seed) cells run
// serially or on every available core.
func TestParallelExecutionIsDeterministic(t *testing.T) {
	spec, ok := Lookup("split-brain-until-TS")
	if !ok {
		t.Fatal("missing canned scenario")
	}
	spec.Seeds = 3

	serial := spec
	serial.Workers = 1
	parallel := spec
	parallel.Workers = 8

	repS, err := Run(serial)
	if err != nil {
		t.Fatal(err)
	}
	repP, err := Run(parallel)
	if err != nil {
		t.Fatal(err)
	}
	jsonS, err := repS.JSON()
	if err != nil {
		t.Fatal(err)
	}
	jsonP, err := repP.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if jsonS != jsonP {
		t.Fatalf("reports differ between 1 and 8 workers:\n--- serial ---\n%s\n--- parallel ---\n%s", jsonS, jsonP)
	}
}

// TestParallelExecutionReportsConfigErrors pins the error path through the
// pool: a fault that cannot be scheduled must surface as an error, not hang
// or get lost in a worker.
func TestParallelExecutionReportsConfigErrors(t *testing.T) {
	spec := Spec{
		Name:      "bad-fault",
		Protocols: []harness.Protocol{harness.ModifiedPaxos},
		Restarts:  []harness.Restart{{Proc: 99, CrashAt: harness.AtDeltas(1)}},
		Seeds:     2,
		Workers:   4,
	}
	if _, err := Run(spec); err == nil {
		t.Fatal("out-of-range fault should error")
	}
}
