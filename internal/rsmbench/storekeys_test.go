package rsmbench

import (
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/harness"
	"repro/internal/protocol"
	"repro/internal/rsm"
	"repro/internal/scenario"
	"repro/internal/storage"
	"repro/internal/trace"
)

// registeredKeys lists every key and key prefix internal/storage/keys.go
// declares. A new constant there belongs here too.
var registeredKeys = []string{
	storage.KeyRSMLogPrefix, storage.KeyRSMSessPrefix, storage.KeyRSMNext,
	storage.KeyRSMSnapshot, storage.KeyRSMEpoch, storage.KeySlotPrefix,
	storage.KeyModPaxosState, storage.KeyPaxosState, storage.KeyRoundBasedState,
	storage.KeyBConsensusState, storage.KeyDynamicsState,
}

// unreachedKeys are the registered prefixes the runs below cannot write,
// each with the reason.
var unreachedKeys = map[string]string{
	storage.KeyRSMSessPrefix: "a session record spills only when more clients hold sessions than rsm.Config.MaxSessions (4096), which rsmbench does not set",
}

// TestStoreKeysAreRegistered reads every process's store after simulated
// runs of every registered protocol and of the RSM (compaction off, then
// compaction with the leader crashed and restarted) and holds each key to
// the registry in internal/storage/keys.go: restore paths scan Keys() by
// prefix, so an undeclared key is invisible to recovery or shadows another
// component's namespace.
func TestStoreKeysAreRegistered(t *testing.T) {
	reached := make(map[string]bool)
	check := func(run string) func(consensus.ProcessID, storage.Store) {
		return func(id consensus.ProcessID, st storage.Store) {
			keys, err := st.Keys()
			if err != nil {
				t.Fatalf("%s: process %d: Keys: %v", run, id, err)
			}
			for _, k := range keys {
				i := slices.IndexFunc(registeredKeys, func(p string) bool { return strings.HasPrefix(k, p) })
				if i < 0 {
					t.Errorf("%s: process %d stores %q, which starts with no storage.Key* prefix", run, id, k)
					continue
				}
				reached[registeredKeys[i]] = true
			}
		}
	}

	const n, delta, ts = 5, 10 * time.Millisecond, 50 * time.Millisecond
	for _, d := range protocol.All() {
		factory, err := d.Build(harness.Config{Delta: delta}.Params())
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		await := make([]consensus.ProcessID, n)
		for i := range await {
			await[i] = consensus.ProcessID(i)
		}
		// Without the leader oracle paxos never decides, but its processes
		// still persist the promises they make.
		if _, _, _, err := (scenario.Cluster{
			Delta: delta, TS: ts, Seed: 1, Horizon: 10 * time.Second, Group: n,
			Restarts:  []harness.Restart{{Proc: 1, CrashAt: harness.AtAbs(ts + delta), RestartAt: harness.AtAbs(ts + 5*delta)}},
			Collector: trace.NewCollector(), Factory: factory, Proposals: harness.DefaultProposals(n),
			Await: await, Settle: 20 * delta, Stores: check(d.Name),
		}).Run(); err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
	}
	for _, cfg := range []Config{
		{Clients: 4, Ops: 10},
		{Clients: 4, Ops: 10, CompactEvery: 8, Restarts: []harness.Restart{
			{Proc: rsm.Leader(), CrashAt: harness.AtAbs(10 * time.Millisecond), RestartAt: harness.AtAbs(60 * time.Millisecond)},
		}},
	} {
		name := "rsm"
		if cfg.CompactEvery > 0 {
			name = "rsm chaos"
		}
		res, err := run(cfg, trace.NewCollector(), check(name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Passed() {
			t.Fatalf("%s: %v", name, res.Violations)
		}
	}

	for _, p := range registeredKeys {
		why, unreachable := unreachedKeys[p]
		switch {
		case reached[p] && unreachable:
			t.Errorf("prefix %q is written after all; drop it from unreachedKeys (%s)", p, why)
		case !reached[p] && !unreachable:
			t.Errorf("no run wrote a key with prefix %q; cover it, or list it in unreachedKeys with the reason", p)
		}
	}
}
