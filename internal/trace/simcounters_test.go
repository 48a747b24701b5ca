package trace_test

import (
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/rsm"
	"repro/internal/rsmbench"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// TestSimulatorCountsOnlyByID holds the simulator to the interned counter
// path: every send, delivery and drop goes through Intern and
// SentID/DeliveredID/DroppedID, never the string-keyed methods the
// concurrent live runtime uses, which hash the type name and add atomically
// per message. Each run sends, delivers and drops messages (before TS, and
// to a crashed process), and the string-keyed table must stay empty
// whichever package along the way does the counting.
func TestSimulatorCountsOnlyByID(t *testing.T) {
	check := func(name string, c *trace.Collector) {
		t.Helper()
		if c.TotalSent() == 0 || c.TotalDropped() == 0 {
			t.Errorf("%s: %d sent, %d dropped; the run must both send and drop", name, c.TotalSent(), c.TotalDropped())
		}
		if n := trace.StringKeyedTypes(c); n != 0 {
			t.Errorf("%s: the string-keyed counter table holds %d types; the simulator must count through Intern and the ID methods: sent %v",
				name, n, c.SentCounts())
		}
	}
	for _, p := range harness.Protocols() {
		res, err := harness.Run(harness.Config{
			Protocol: p, N: 5, Delta: 10 * time.Millisecond, TS: 150 * time.Millisecond, Seed: 1, Observe: true,
			Restarts: []harness.Restart{{Proc: 4, CrashAt: harness.AtAbs(160 * time.Millisecond), RestartAt: harness.AtAbs(220 * time.Millisecond)}},
		})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		check(string(p), res.Collector)
	}
	res, err := rsmbench.Run(rsmbench.Config{
		Backend: scenario.BackendSim, Clients: 4, Ops: 10, Observe: true, CompactEvery: 8,
		Restarts: []harness.Restart{{Proc: rsm.Leader(), CrashAt: harness.AtAbs(10 * time.Millisecond), RestartAt: harness.AtAbs(60 * time.Millisecond)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("rsm run failed: %v", res.Violations)
	}
	check("rsm", res.Collector())
}
