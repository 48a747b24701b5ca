package harness

// Cross-protocol failure-injection suite: every protocol is subjected to
// randomized crash/restart storms before stabilization, a spectrum of
// pre-TS network pathologies, and permanent minority failures. The
// invariants are uniform: no safety violation ever, and a decision within
// the horizon whenever a majority is up after TS.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/simnet"
)

func TestCrashStormBeforeTS(t *testing.T) {
	if testing.Short() {
		t.Skip("long fault-injection suite")
	}
	ts := 300 * time.Millisecond
	for _, proto := range Protocols() {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				rng := rand.New(rand.NewSource(seed))
				n := 4 + rng.Intn(3) // 4..6
				var restarts []Restart
				// Up to 2·N crash/restart events, all completed before TS
				// (the model lets processes fail only before TS).
				events := rng.Intn(2*n + 1)
				for i := 0; i < events; i++ {
					proc := consensus.ProcessID(rng.Intn(n))
					crash := time.Duration(rng.Int63n(int64(ts * 3 / 4)))
					back := crash + time.Duration(rng.Int63n(int64(ts/4)))
					restarts = append(restarts, Restart{Proc: proc, CrashAt: AtAbs(crash), RestartAt: AtAbs(back)})
				}
				res, err := Run(Config{
					Protocol: proto, N: n, Delta: delta, TS: ts, Rho: 0.01,
					Policy: simnet.Chaos{DropProb: 0.5},
					Seed:   seed, Restarts: restarts,
					Horizon: 30 * time.Second,
				})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if res.Violation != nil {
					t.Fatalf("seed %d: safety violation: %v", seed, res.Violation)
				}
				if !res.Decided {
					t.Fatalf("seed %d (n=%d, %d restarts): no decision", seed, n, events)
				}
			}
		})
	}
}

func TestPermanentMinorityDown(t *testing.T) {
	ts := 200 * time.Millisecond
	for _, proto := range Protocols() {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			// ⌈N/2⌉−1 processes crash before TS and never return.
			n := 7
			down := consensus.Majority(n) - 1
			var restarts []Restart
			for i := 0; i < down; i++ {
				restarts = append(restarts, Restart{
					Proc:    consensus.ProcessID(n - 1 - i),
					CrashAt: AtAbs(time.Duration(10+i) * time.Millisecond),
				})
			}
			res, err := Run(Config{
				Protocol: proto, N: n, Delta: delta, TS: ts, Rho: 0.01,
				Seed: 9, Restarts: restarts, Horizon: 30 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation != nil {
				t.Fatal(res.Violation)
			}
			if !res.Decided {
				t.Fatal("majority did not decide with a permanent minority down")
			}
		})
	}
}

func TestPreTSPolicySpectrum(t *testing.T) {
	ts := 200 * time.Millisecond
	policies := map[string]simnet.Policy{
		"dropall":     simnet.DropAll{},
		"light":       simnet.Chaos{DropProb: 0.1},
		"heavy":       simnet.Chaos{DropProb: 0.9},
		"slow-only":   simnet.Chaos{DropProb: 0, MaxDelay: 3 * ts},
		"partition":   simnet.Partition{Group: map[consensus.ProcessID]int{0: 0, 1: 0, 2: 0, 3: 1, 4: 1}},
		"synchronous": simnet.Synchronous{},
	}
	for _, proto := range Protocols() {
		for name, policy := range policies {
			proto, name, policy := proto, name, policy
			t.Run(fmt.Sprintf("%s/%s", proto, name), func(t *testing.T) {
				res, err := Run(Config{
					Protocol: proto, N: 5, Delta: delta, TS: ts, Rho: 0.01,
					Policy: policy, Seed: 11, Horizon: 30 * time.Second,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Violation != nil {
					t.Fatal(res.Violation)
				}
				if !res.Decided {
					t.Fatal("no decision")
				}
			})
		}
	}
}

// TestEveryoneRestartsOnce is the harshest restart schedule: every single
// process crashes and comes back before TS (staggered so a majority is
// never simultaneously down for long).
func TestEveryoneRestartsOnce(t *testing.T) {
	ts := 300 * time.Millisecond
	for _, proto := range Protocols() {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			n := 5
			var restarts []Restart
			for i := 0; i < n; i++ {
				crash := time.Duration(20+30*i) * time.Millisecond
				restarts = append(restarts, Restart{
					Proc: consensus.ProcessID(i), CrashAt: AtAbs(crash), RestartAt: AtAbs(crash + 25*time.Millisecond),
				})
			}
			res, err := Run(Config{
				Protocol: proto, N: n, Delta: delta, TS: ts, Rho: 0.01,
				Policy: simnet.Chaos{DropProb: 0.4}, Seed: 13, Restarts: restarts,
				Horizon: 30 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation != nil {
				t.Fatal(res.Violation)
			}
			if !res.Decided {
				t.Fatal("no decision after full restart wave")
			}
		})
	}
}
