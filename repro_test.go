package repro_test

import (
	"fmt"
	"testing"
	"time"

	"repro"
)

func TestFacadeRun(t *testing.T) {
	res, err := repro.Run(repro.Config{
		Protocol: repro.ModifiedPaxos, N: 3,
		Delta: 10 * time.Millisecond, TS: 50 * time.Millisecond, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decided || res.Violation != nil {
		t.Fatalf("decided=%v violation=%v", res.Decided, res.Violation)
	}
}

// TestFacadeRejectsBadRestarts: a schedule naming a process outside the
// cluster, a crash before time 0 or a restart before its crash is an error
// from Run, not a panic inside the simulator or a silently reordered run.
func TestFacadeRejectsBadRestarts(t *testing.T) {
	for _, r := range []repro.Restart{
		{Proc: 9, CrashAt: repro.AtAbs(time.Millisecond)},
		{Proc: 1, CrashAt: repro.AtAbs(-time.Millisecond)},
		{Proc: 1, CrashAt: repro.AfterTS(2), RestartAt: repro.AfterTS(1)},
	} {
		_, err := repro.Run(repro.Config{
			Protocol: repro.ModifiedPaxos, N: 5,
			Delta: 10 * time.Millisecond, TS: 50 * time.Millisecond, Seed: 1,
			Restarts: []repro.Restart{r},
		})
		if err == nil {
			t.Errorf("%+v: Run accepted the schedule", r)
		}
	}
}

func TestFacadeProtocols(t *testing.T) {
	ps := repro.Protocols()
	if len(ps) != 4 {
		t.Fatalf("Protocols() = %v, want 4 entries", ps)
	}
	for _, p := range ps {
		res, err := repro.Run(repro.Config{Protocol: p, N: 3, Delta: 10 * time.Millisecond, Seed: 2})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if !res.Decided {
			t.Fatalf("%s did not decide", p)
		}
	}
}

func TestFacadeDecisionBound(t *testing.T) {
	delta := 10 * time.Millisecond
	bound, err := repro.DecisionBound(delta, 0, 0, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	// ε+3τ+5δ with defaults lands between the theoretical floor 17δ and
	// ~20δ.
	if bound < 17*delta || bound > 20*delta {
		t.Fatalf("bound = %v (%.1fδ), outside the expected envelope", bound, float64(bound)/float64(delta))
	}
	if _, err := repro.DecisionBound(0, 0, 0, 0); err == nil {
		t.Fatal("zero δ should be rejected")
	}
}

func TestFacadeExperimentParams(t *testing.T) {
	p := repro.DefaultExperimentParams()
	if p.Delta == 0 || p.Seeds == 0 {
		t.Fatalf("defaults look empty: %+v", p)
	}
}

// ExampleRun demonstrates the simplest library use: run the paper's
// algorithm through an unstable period and check the paper's bound held.
func ExampleRun() {
	delta := 10 * time.Millisecond
	res, err := repro.Run(repro.Config{
		Protocol: repro.ModifiedPaxos,
		N:        5,
		Delta:    delta,
		TS:       200 * time.Millisecond,
		Rho:      0.01,
		Seed:     1,
	})
	if err != nil {
		panic(err)
	}
	bound, err := repro.DecisionBound(delta, 0, 0, 0.01)
	if err != nil {
		panic(err)
	}
	fmt.Println("decided:", res.Decided)
	fmt.Println("within paper bound:", res.LatencyAfterTS <= bound)
	// Output:
	// decided: true
	// within paper bound: true
}

// ExampleRun_adversarial shows the paper's headline contrast under the
// obsolete-ballot adversary.
func ExampleRun_adversarial() {
	cfg := repro.Config{
		N: 9, Delta: 10 * time.Millisecond, TS: 100 * time.Millisecond,
		Attack: repro.ObsoleteBallots, AttackK: 4, WorstCaseDelays: true, Seed: 3,
	}
	cfg.Protocol = repro.TraditionalPaxos
	trad, err := repro.Run(cfg)
	if err != nil {
		panic(err)
	}
	cfg.Protocol = repro.ModifiedPaxos
	mod, err := repro.Run(cfg)
	if err != nil {
		panic(err)
	}
	fmt.Println("modified paxos faster:", mod.LatencyAfterTS < trad.LatencyAfterTS)
	// Output:
	// modified paxos faster: true
}

// ExampleRun_restart shows the paper's restart guarantee (§4): a process
// that crashed before TS and restarts long after the others decided decides
// within O(δ) of its restart, however late that is.
func ExampleRun_restart() {
	delta, ts := 10*time.Millisecond, 200*time.Millisecond
	for _, k := range []float64{2, 10, 50, 200} {
		back := repro.AfterTS(k)
		res, err := repro.Run(repro.Config{
			Protocol: repro.ModifiedPaxos,
			N:        5, Delta: delta, TS: ts, Rho: 0.01, Seed: 3,
			Restarts: []repro.Restart{{Proc: 4, CrashAt: repro.AtAbs(50 * time.Millisecond), RestartAt: back}},
			Horizon:  back.Resolve(delta, ts) + time.Second,
		})
		if err != nil {
			panic(err)
		}
		if res.Violation != nil {
			panic(res.Violation)
		}
		rec, ok := res.RestartRecovery[4]
		fmt.Printf("restart at TS+%vδ: decided=%v %.1fδ after it\n", k, ok, float64(rec)/float64(delta))
	}
	// Output:
	// restart at TS+2δ: decided=true 1.1δ after it
	// restart at TS+10δ: decided=true 0.2δ after it
	// restart at TS+50δ: decided=true 0.2δ after it
	// restart at TS+200δ: decided=true 0.4δ after it
}
