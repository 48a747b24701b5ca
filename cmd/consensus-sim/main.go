// Command consensus-sim runs a single simulated consensus experiment and
// prints its outcome, timing, and message accounting. It is a thin shell
// over the scenario engine: the flags assemble a one-seed scenario.Spec, so
// a consensus-sim invocation measures exactly what `scenario run` and the
// grid sweeps measure.
//
// Usage (any protocol name registered with internal/protocol is accepted,
// including hidden ablation variants such as modpaxos-norule):
//
//	consensus-sim [-protocol modpaxos|paxos|roundbased|bconsensus]
//	              [-n 5] [-delta 10ms] [-ts 200ms] [-rho 0.01]
//	              [-sigma 0] [-eps 0] [-seed 1]
//	              [-attack none|obsolete|deadcoords] [-k 0]
//	              [-policy dropall|chaos|sync] [-drop 0.5]
//	              [-restart "proc@crash:restart"] [-worstcase] [-v]
//
// Examples:
//
//	# The headline contrast: traditional Paxos vs the paper's algorithm
//	# under 8 obsolete ballots.
//	consensus-sim -protocol paxos    -n 17 -attack obsolete -k 8 -worstcase
//	consensus-sim -protocol modpaxos -n 17 -attack obsolete -k 8 -worstcase
//
//	# A process crashes before TS and restarts 400ms after it.
//	consensus-sim -protocol modpaxos -restart "4@100ms:600ms"
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/harness"
	"repro/internal/protocol"
	"repro/internal/scenario"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// protocolNames enumerates the registered protocols for the flag help and
// error messages (hidden ablation variants still resolve by name).
func protocolNames() string {
	var names []string
	for _, d := range protocol.Visible() {
		names = append(names, d.Name)
	}
	return strings.Join(names, ", ")
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "consensus-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("consensus-sim", flag.ContinueOnError)
	var (
		proto     = fs.String("protocol", "modpaxos", "protocol: "+protocolNames())
		n         = fs.Int("n", 5, "number of processes")
		delta     = fs.Duration("delta", 10*time.Millisecond, "δ")
		ts        = fs.Duration("ts", 200*time.Millisecond, "stabilization time TS")
		rho       = fs.Float64("rho", 0.01, "clock-rate error bound ρ")
		sigma     = fs.Duration("sigma", 0, "σ (modpaxos; 0 = default)")
		eps       = fs.Duration("eps", 0, "ε (modpaxos/bconsensus; 0 = default)")
		seed      = fs.Int64("seed", 1, "random seed")
		attack    = fs.String("attack", "none", "adversary: none, obsolete, deadcoords")
		k         = fs.Int("k", 0, "attack strength")
		policy    = fs.String("policy", "dropall", "pre-TS policy: dropall, chaos, sync")
		dropProb  = fs.Float64("drop", 0.5, "chaos policy drop probability")
		restart   = fs.String("restart", "", "crash/restart schedule \"proc@crash:restart\" (comma separated)")
		worstCase = fs.Bool("worstcase", false, "every post-TS delivery takes exactly δ")
		prepared  = fs.Bool("prepared", false, "stable-state fast path (modpaxos)")
		verbose   = fs.Bool("v", false, "print the session/round time series")
		horizon   = fs.Duration("horizon", 2*time.Minute, "virtual-time budget")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The flags describe a one-seed scenario; the run itself goes through
	// the same engine as `scenario run` and the grid sweeps.
	spec := scenario.Spec{
		Name:      "consensus-sim",
		Protocols: []harness.Protocol{harness.Protocol(*proto)},
		N:         *n, Delta: *delta, TS: *ts,
		Sigma: *sigma, Eps: *eps,
		StableFromStart: *ts == 0,
		Clocks:          scenario.ClockProfile{Rho: *rho},
		WorstCaseDelays: *worstCase,
		Prepared:        *prepared,
		Seeds:           1, BaseSeed: *seed,
		Horizon:  *horizon,
		KeepRuns: true,
	}
	switch harness.AttackKind(*attack) {
	case harness.NoAttack:
	case harness.ObsoleteBallots, harness.DeadCoordinators:
		if *k > 0 {
			spec.Adversary = scenario.AdversaryProfile{Attack: harness.AttackKind(*attack), K: *k}
		}
	default:
		return fmt.Errorf("unknown attack %q", *attack)
	}
	var pol simnet.Policy
	switch *policy {
	case "dropall":
		pol = simnet.DropAll{}
	case "chaos":
		pol = simnet.Chaos{DropProb: *dropProb}
	case "sync":
		pol = simnet.Synchronous{}
	default:
		return fmt.Errorf("unknown policy %q", *policy)
	}
	spec.Net = func(n int, delta, ts time.Duration) simnet.Policy { return pol }

	var err error
	if spec.Restarts, err = parseRestarts(*restart); err != nil {
		return err
	}

	rep, err := scenario.Run(spec)
	if err != nil {
		return err
	}
	one := rep.Runs()[0]
	report(one.Cfg, one.Res, *verbose)
	if one.Res.Violation != nil {
		return fmt.Errorf("SAFETY VIOLATION: %w", one.Res.Violation)
	}
	if !one.Res.Decided {
		return fmt.Errorf("cluster did not decide within %v", *horizon)
	}
	return nil
}

// parseRestarts parses "proc@crash:restart" entries such as "4@100ms:600ms".
func parseRestarts(s string) ([]harness.Restart, error) {
	if s == "" {
		return nil, nil
	}
	var out []harness.Restart
	for _, part := range strings.Split(s, ",") {
		procStr, times, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("restart %q: want proc@crash:restart", part)
		}
		proc, err := strconv.Atoi(procStr)
		if err != nil {
			return nil, fmt.Errorf("restart %q: bad process id: %w", part, err)
		}
		crashStr, restartStr, ok := strings.Cut(times, ":")
		if !ok {
			return nil, fmt.Errorf("restart %q: want proc@crash:restart", part)
		}
		crash, err := time.ParseDuration(crashStr)
		if err != nil {
			return nil, fmt.Errorf("restart %q: bad crash time: %w", part, err)
		}
		var back time.Duration
		if restartStr != "" && restartStr != "never" {
			back, err = time.ParseDuration(restartStr)
			if err != nil {
				return nil, fmt.Errorf("restart %q: bad restart time: %w", part, err)
			}
		}
		out = append(out, harness.Restart{
			Proc: consensus.ProcessID(proc), CrashAt: harness.AtAbs(crash), RestartAt: harness.AtAbs(back),
		})
	}
	return out, nil
}

func report(cfg harness.Config, res harness.Result, verbose bool) {
	fmt.Printf("protocol   %s  (n=%d δ=%v TS=%v seed=%d)\n", cfg.Protocol, cfg.N, cfg.Delta, cfg.TS, cfg.Seed)
	if cfg.Attack != "" && cfg.Attack != harness.NoAttack {
		fmt.Printf("adversary  %s k=%d\n", cfg.Attack, cfg.AttackK)
	}
	fmt.Printf("decided    %v  value=%q\n", res.Decided, res.Value)
	fmt.Printf("first decision  %v\n", res.FirstDecision)
	fmt.Printf("last decision   %v  (%s after TS)\n", res.LastDecision, trace.InDelta(res.LatencyAfterTS, cfg.Delta))
	if d, err := protocol.Get(string(cfg.Protocol)); err == nil && d.DecisionBound != nil {
		if bound, err := d.DecisionBound(cfg.Params()); err == nil {
			fmt.Printf("paper bound     ε+3τ+5δ = %v (%s)\n", bound, trace.InDelta(bound, cfg.Delta))
		}
	}
	for proc, rec := range res.RestartRecovery {
		fmt.Printf("restart    p%d decided %v after restart (%s)\n", proc, rec, trace.InDelta(rec, cfg.Delta))
	}
	fmt.Printf("messages   %d total\n", res.Messages)
	fmt.Print(res.Collector.MessageReport())
	if verbose {
		for _, name := range res.Collector.SeriesNames() {
			fmt.Printf("series %s:\n", name)
			for _, s := range res.Collector.Series(name) {
				fmt.Printf("  %10v  p%-2d  %d\n", s.At, s.Proc, s.Value)
			}
		}
	}
}
