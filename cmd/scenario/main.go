// Command scenario lists, runs, and sweeps the canned adversarial scenarios
// of the scenario engine (internal/scenario).
//
// Usage:
//
//	scenario list
//	scenario run [-backend sim|live|live-tcp] [-seeds N] [-n N] [-delta D]
//	             [-ts D] [-short] [-format text|json]
//	             [-observe] [-timeline out.json] [-hist]
//	             [-cpuprofile F] [-memprofile F] <name>|all
//	scenario sweep [-axis name=v1,v2,...]... [-zip] [-ns 5,9,17] [-seeds N]
//	               [-delta D] [-workers W] [-backend B] [-failfast]
//	               [-observe] [-format text|csv|json]
//	               [-cpuprofile F] [-memprofile F] <name>|all
//	scenario rsm-bench [-backend sim|live|live-tcp] [-clients N] [-ops N]
//	                   [-n N] [-keys N] [-batch 1,8] [-pipeline 1,4]
//	                   [-queue N] [-linger D] [-open D] [-delta D] [-seed S]
//	                   [-crash-leader D] [-restart-leader D]
//	                   [-compact-every N] [-failover-timeout D]
//	                   [-format text|csv|json] [-timeline out.json]
//
// `list` enumerates the canned scenarios and the registered protocols.
// `run` executes a scenario across its protocol set and seed matrix and
// prints the report; it exits non-zero if any invariant was violated, so a
// scenario run doubles as a CI gate. -backend selects the execution
// substrate: the deterministic simulator (default), or the live runtime —
// real goroutines and wall-clock time over in-memory channels (live) or
// loopback TCP (live-tcp), with the scenario's pre-TS policy injected as
// wall-clock faults. -short caps the matrix at one seed per protocol for
// wall-clock smoke runs. `sweep` re-runs a scenario across a multi-axis
// parameter grid (internal/scenario.Grid) and prints the median latency
// after TS per protocol and cell — the O(δ) vs O(Nδ) shape at a glance;
// -failfast stops scheduling cells at the first violated cell. Axes (any
// subset, crossed by default or paired with -zip):
//
//	-axis n=5,9,17 -axis delta=1ms,5ms,25ms -axis rho=0,0.01,0.1
//	-axis ts=0,100ms,400ms -axis sigma=50ms,80ms -axis eps=1ms,5ms -axis k=0,2,8
//
// With no -axis the sweep defaults to n=5,9,17 (-ns is shorthand for the n
// axis). -format csv|json emits one row per (cell, protocol) carrying the
// cell's parameters, for plotting. Runs are deterministic in the flags,
// whatever -workers is.
//
// Observability: -observe records phase spans and latency histograms on
// every run (identical schedules — observation consumes no randomness);
// reports then carry per-protocol decision-latency quantiles, and sweep CSVs
// populate the decision_p50/p95/p99 columns. `run -timeline out.json` writes
// all runs as one Chrome-trace timeline (open in chrome://tracing or
// ui.perfetto.dev); `run -hist` prints every histogram merged across runs.
// Both imply -observe.
//
// `rsm-bench` drives the replicated-log serving path (internal/rsm) with the
// multi-client workload generator (internal/rsmbench): closed-loop by
// default, open-loop with -open. -batch and -pipeline take comma lists that
// are crossed into one run per (batch, pipeline) cell, so
// `rsm-bench -batch 1,8 -pipeline 1,4` prints the batching/pipelining
// speedup matrix directly. Every run reports ops/sec and commit-latency
// quantiles and always checks every replica incarnation's applies with
// rsm.History (apply order, agreement, exactly-once, gaps, lost acks); any
// violation (or timeout) makes the command exit non-zero, so a bench run
// doubles as a CI gate.
//
// Chaos flags: -crash-leader kills the initial leader mid-run (the group
// fails over by epoch and the clients resume on the new leader) and
// -restart-leader brings it back, where it catches up — via snapshot when
// -compact-every has truncated the log past its crash point. Chaos runs
// report the client-observed outage and the catch-up latency histograms and
// a per-replica rsmlog/ key census in the JSON output.
//
// Both run and sweep take -cpuprofile and -memprofile, writing pprof
// profiles that cover exactly the executed workload — perf work profiles
// the real scenario engine under the real regime mix instead of a
// synthetic benchmark (`go tool pprof cpu.prof` to inspect).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/protocol"
	"repro/internal/rsm"
	"repro/internal/rsmbench"
	"repro/internal/scenario"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "scenario:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: scenario <list|run|sweep|rsm-bench> [flags] [name]")
	}
	switch args[0] {
	case "list":
		return cmdList(out)
	case "run":
		return cmdRun(args[1:], out)
	case "sweep":
		return cmdSweep(args[1:], out)
	case "rsm-bench":
		return cmdRSMBench(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q (want list, run, sweep, or rsm-bench)", args[0])
	}
}

func cmdList(out io.Writer) error {
	fmt.Fprintln(out, "protocols (from the registry; hidden variants run only when named):")
	for _, d := range protocol.All() {
		name := d.Name
		if d.Hidden {
			name += " (hidden)"
		}
		fmt.Fprintf(out, "  %-26s %s\n", name, d.Doc)
	}
	fmt.Fprintln(out, "\nscenarios:")
	for _, s := range scenario.Library() {
		fmt.Fprintf(out, "  %-26s %s\n", s.Name, s.Description)
	}
	return nil
}

// parseWithName parses a subcommand's flags around its single positional
// name argument. Go's flag package stops at the first positional, so
// `scenario run all -seeds 3` would otherwise silently ignore the flags;
// a second Parse over the remainder accepts them on either side.
func parseWithName(fs *flag.FlagSet, args []string, usage string) (string, error) {
	if err := fs.Parse(args); err != nil {
		return "", err
	}
	if fs.NArg() == 0 {
		return "", fmt.Errorf("usage: %s", usage)
	}
	name := fs.Arg(0)
	if err := fs.Parse(fs.Args()[1:]); err != nil {
		return "", err
	}
	if fs.NArg() != 0 {
		return "", fmt.Errorf("unexpected arguments %v; usage: %s", fs.Args(), usage)
	}
	return name, nil
}

// withProfiles runs f under the optional CPU and heap profiles — the hooks
// perf work uses to profile the real scenario workload instead of a
// synthetic benchmark. The CPU profile covers exactly f; the heap profile
// is written after f returns (post-GC, so it shows live memory, not churn).
// Profiles are written even when f fails: a pathological run is exactly the
// one worth profiling.
func withProfiles(cpuPath, memPath string, f func() error) error {
	if cpuPath != "" {
		fh, err := os.Create(cpuPath)
		if err != nil {
			return fmt.Errorf("create cpu profile: %w", err)
		}
		defer fh.Close()
		if err := pprof.StartCPUProfile(fh); err != nil {
			return fmt.Errorf("start cpu profile: %w", err)
		}
		// Stopped explicitly below, before the heap write, so the forced
		// GC never shows up as CPU samples; the defer only covers panics.
		defer pprof.StopCPUProfile()
	}
	err := f()
	if cpuPath != "" {
		pprof.StopCPUProfile()
	}
	if memPath != "" {
		fh, merr := os.Create(memPath)
		if merr != nil {
			if err == nil {
				err = fmt.Errorf("create mem profile: %w", merr)
			}
			return err
		}
		defer fh.Close()
		runtime.GC()
		if merr := pprof.WriteHeapProfile(fh); merr != nil && err == nil {
			err = fmt.Errorf("write mem profile: %w", merr)
		}
	}
	return err
}

// resolve expands a name argument to specs: a canned name, or "all".
func resolve(name string) ([]scenario.Spec, error) {
	if name == "all" {
		return scenario.Library(), nil
	}
	s, ok := scenario.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("unknown scenario %q (scenario list shows the library)", name)
	}
	return []scenario.Spec{s}, nil
}

func cmdRun(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("scenario run", flag.ContinueOnError)
	var (
		backend  = fs.String("backend", "", "execution substrate: "+strings.Join(scenario.BackendNames(), ", ")+" (default: scenario's own, usually sim)")
		seeds    = fs.Int("seeds", 0, "seeds per protocol (0 = scenario default)")
		n        = fs.Int("n", 0, "cluster size (0 = scenario default)")
		delta    = fs.Duration("delta", 0, "δ override (0 = scenario default)")
		ts       = fs.Duration("ts", 0, "TS override (0 = scenario default)")
		short    = fs.Bool("short", false, "smoke mode: one seed per protocol (for wall-clock live runs)")
		format   = fs.String("format", "text", "output format: text or json")
		observe  = fs.Bool("observe", false, "enable phase spans and latency histograms (reports gain decision-latency quantiles)")
		timeline = fs.String("timeline", "", "write a Chrome-trace timeline of every run to this file (implies -observe)")
		hist     = fs.Bool("hist", false, "print merged histogram summaries after each report (implies -observe)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the runs to this file")
		memProf  = fs.String("memprofile", "", "write a post-run heap profile to this file")
	)
	name, err := parseWithName(fs, args, "scenario run [flags] <name>|all")
	if err != nil {
		return err
	}
	if *format != "text" && *format != "json" {
		return fmt.Errorf("unknown format %q", *format)
	}
	specs, err := resolve(name)
	if err != nil {
		return err
	}
	return withProfiles(*cpuProf, *memProf, func() error {
		return runSpecs(specs, out, runOpts{
			backend: *backend, seeds: *seeds, short: *short, n: *n,
			delta: *delta, ts: *ts, format: *format,
			observe: *observe, timeline: *timeline, hist: *hist,
		})
	})
}

// runOpts carries the run subcommand's overrides.
type runOpts struct {
	backend  string
	seeds    int
	short    bool
	n        int
	delta    time.Duration
	ts       time.Duration
	format   string
	observe  bool
	timeline string
	hist     bool
}

// runSpecs executes the resolved specs with the run subcommand's overrides.
func runSpecs(specs []scenario.Spec, out io.Writer, opts runOpts) error {
	observe := opts.observe || opts.timeline != "" || opts.hist
	violated := 0
	// One timeline file spans every run of every spec: one Chrome-trace
	// "process" per run, lanes (threads) per consensus process within it.
	var procs []trace.TimelineProcess
	for _, spec := range specs {
		if opts.backend != "" {
			spec.Backend = opts.backend
		}
		if opts.seeds > 0 {
			spec.Seeds = opts.seeds
		}
		if opts.short {
			spec.Seeds = 1
		}
		if opts.n > 0 {
			spec.N = opts.n
		}
		if opts.delta > 0 {
			spec.Delta = opts.delta
		}
		if opts.ts > 0 {
			spec.TS = opts.ts
			// An explicit TS overrides a scenario's stable-from-start
			// default, which would otherwise force TS back to zero.
			spec.StableFromStart = false
		}
		if observe {
			spec.Observe = true
			// Snapshots and merged histograms read the raw runs.
			spec.KeepRuns = true
		}
		rep, err := scenario.Run(spec)
		if err != nil {
			return err
		}
		violated += len(rep.Violations)
		if opts.format == "json" {
			s, err := rep.JSON()
			if err != nil {
				return err
			}
			fmt.Fprintln(out, s)
		} else {
			fmt.Fprintln(out, rep.Text())
		}
		if opts.hist {
			fmt.Fprintf(out, "histograms (merged over %d runs):\n", len(rep.Runs()))
			for _, s := range rep.HistogramSummaries() {
				fmt.Fprintln(out, "  "+s.String())
			}
			fmt.Fprintln(out)
		}
		if opts.timeline != "" {
			for _, run := range rep.Runs() {
				name := fmt.Sprintf("%s/%s/seed=%d", rep.Scenario, run.Protocol, run.Seed)
				if rep.Backend != scenario.BackendSim {
					name += "/" + rep.Backend
				}
				procs = append(procs, trace.TimelineProcess{
					PID:  len(procs),
					Name: name,
					Snap: run.Res.Collector.Snapshot(),
				})
			}
		}
	}
	if opts.timeline != "" {
		fh, err := os.Create(opts.timeline)
		if err != nil {
			return fmt.Errorf("create timeline: %w", err)
		}
		werr := trace.WriteChromeTrace(fh, procs)
		if cerr := fh.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("write timeline: %w", werr)
		}
		fmt.Fprintf(out, "timeline: %d run(s) written to %s (open in chrome://tracing or ui.perfetto.dev)\n", len(procs), opts.timeline)
	}
	if violated > 0 {
		return fmt.Errorf("%d invariant violation(s)", violated)
	}
	return nil
}

// parseIntList parses a comma-separated list of positive ints ("1,8").
func parseIntList(flagName, s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("-%s: bad value %q (want positive ints, e.g. \"1,8\")", flagName, part)
		}
		out = append(out, v)
	}
	return out, nil
}

func cmdRSMBench(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("scenario rsm-bench", flag.ContinueOnError)
	var (
		backend  = fs.String("backend", scenario.BackendSim, "substrate: "+strings.Join(scenario.BackendNames(), ", "))
		n        = fs.Int("n", 0, "replica count (default 3)")
		clients  = fs.Int("clients", 0, "workload clients (default 8)")
		ops      = fs.Int("ops", 0, "operations per client (default 20)")
		keys     = fs.Int("keys", 0, "key-space size (default 16)")
		batch    = fs.String("batch", "", "max batch sizes, comma list crossed with -pipeline (default rsm default: 8)")
		pipeline = fs.String("pipeline", "", "max in-flight slots, comma list crossed with -batch (default rsm default: 4)")
		queue    = fs.Int("queue", 0, "proposal queue bound before Busy shedding (default 1024)")
		linger   = fs.Duration("linger", 0, "batch linger window (default 0: flush on idle pipeline)")
		open     = fs.Duration("open", 0, "open-loop issue interval (default 0: closed loop)")
		delta    = fs.Duration("delta", 0, "network delay bound δ (default 2ms)")
		seed     = fs.Int64("seed", 0, "substrate seed (default 1)")
		format   = fs.String("format", "text", "output format: text, csv, or json")
		timeline = fs.String("timeline", "", "write a Chrome-trace timeline of every run to this file")
		crash    = fs.Duration("crash-leader", 0, "kill the initial leader this long into the run (default 0: no crash)")
		restart  = fs.Duration("restart-leader", 0, "restart the crashed leader this long into the run (needs -crash-leader)")
		compact  = fs.Int64("compact-every", 0, "snapshot and truncate the log every N applied slots (default 0: off)")
		fotmo    = fs.Duration("failover-timeout", 0, "silence bound σ after which followers claim leadership (default 10×δ when -crash-leader is set)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v; rsm-bench takes only flags", fs.Args())
	}
	if *format != "text" && *format != "csv" && *format != "json" {
		return fmt.Errorf("unknown format %q (want text, csv, or json)", *format)
	}
	if *restart > 0 && *crash <= 0 {
		return fmt.Errorf("-restart-leader needs -crash-leader")
	}
	var restarts []harness.Restart
	if *crash != 0 {
		restarts = []harness.Restart{{Proc: rsm.Leader(), CrashAt: harness.AtAbs(*crash), RestartAt: harness.AtAbs(*restart)}}
	}
	batches, pipelines := []int{0}, []int{0}
	var err error
	if *batch != "" {
		if batches, err = parseIntList("batch", *batch); err != nil {
			return err
		}
	}
	if *pipeline != "" {
		if pipelines, err = parseIntList("pipeline", *pipeline); err != nil {
			return err
		}
	}

	var results []*rsmbench.Result
	var procs []trace.TimelineProcess
	for _, b := range batches {
		for _, k := range pipelines {
			res, err := rsmbench.Run(rsmbench.Config{
				Backend: *backend, N: *n, Clients: *clients, Ops: *ops,
				Keys: *keys, MaxBatch: b, MaxInFlight: k, MaxQueue: *queue,
				Linger: *linger, OpenInterval: *open, Delta: *delta,
				Seed: *seed, Observe: *timeline != "",
				Restarts: restarts, CompactEvery: *compact, FailoverTimeout: *fotmo,
			})
			if err != nil {
				return err
			}
			results = append(results, res)
			if *timeline != "" {
				procs = append(procs, trace.TimelineProcess{
					PID:  len(procs),
					Name: fmt.Sprintf("rsm-bench/%s/batch=%d/k=%d", res.Backend, res.MaxBatch, res.MaxInFlight),
					Snap: res.Collector().Snapshot(),
				})
			}
		}
	}

	switch *format {
	case "csv":
		fmt.Fprint(out, rsmbench.CSV(results))
	case "json":
		s, err := rsmbench.JSON(results)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, s)
	default:
		fmt.Fprint(out, rsmbench.Text(results))
	}
	if *timeline != "" {
		fh, err := os.Create(*timeline)
		if err != nil {
			return fmt.Errorf("create timeline: %w", err)
		}
		werr := trace.WriteChromeTrace(fh, procs)
		if cerr := fh.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("write timeline: %w", werr)
		}
		fmt.Fprintf(out, "timeline: %d run(s) written to %s (open in chrome://tracing or ui.perfetto.dev)\n", len(procs), *timeline)
	}
	failed := 0
	for _, r := range results {
		if !r.Passed() {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d run(s) failed (timeout or invariant violations)", failed)
	}
	return nil
}

// axisFlags accumulates repeated -axis flags into parsed grid axes.
type axisFlags struct {
	axes []scenario.Axis
}

// String implements flag.Value.
func (a *axisFlags) String() string {
	names := make([]string, len(a.axes))
	for i, ax := range a.axes {
		names[i] = ax.Name
	}
	return strings.Join(names, ",")
}

// Set implements flag.Value.
func (a *axisFlags) Set(s string) error {
	ax, err := scenario.ParseAxis(s)
	if err != nil {
		return err
	}
	a.axes = append(a.axes, ax)
	return nil
}

func cmdSweep(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("scenario sweep", flag.ContinueOnError)
	var axes axisFlags
	fs.Var(&axes, "axis", "swept axis \"name=v1,v2,...\" (repeatable; names: "+strings.Join(scenario.AxisNames(), ", ")+")")
	var (
		ns       = fs.String("ns", "", "shorthand for -axis n=... (default n=5,9,17 when no axis is given)")
		zip      = fs.Bool("zip", false, "pair the axes element-wise instead of crossing them")
		seeds    = fs.Int("seeds", 3, "seeds per protocol per cell")
		delta    = fs.Duration("delta", 0, "base δ override (0 = scenario default; use -axis delta=... to sweep it)")
		workers  = fs.Int("workers", 0, "worker pool size shared across all cells (0 = GOMAXPROCS)")
		backend  = fs.String("backend", "", "execution substrate: "+strings.Join(scenario.BackendNames(), ", ")+" (default: scenario's own, usually sim)")
		failfast = fs.Bool("failfast", false, "stop scheduling cells after the first violated cell")
		observe  = fs.Bool("observe", false, "enable latency histograms (CSV decision_p50/p95/p99 columns populate)")
		format   = fs.String("format", "text", "output format: text, csv, or json")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memProf  = fs.String("memprofile", "", "write a post-sweep heap profile to this file")
	)
	name, err := parseWithName(fs, args, "scenario sweep [flags] <name>|all")
	if err != nil {
		return err
	}
	if *format != "text" && *format != "csv" && *format != "json" {
		return fmt.Errorf("unknown format %q (want text, csv, or json)", *format)
	}
	gridAxes := axes.axes
	if *ns != "" {
		ax, err := scenario.ParseAxis("n=" + *ns)
		if err != nil {
			return err
		}
		gridAxes = append([]scenario.Axis{ax}, gridAxes...)
	}
	if len(gridAxes) == 0 {
		ax, _ := scenario.ParseAxis("n=5,9,17")
		gridAxes = []scenario.Axis{ax}
	}
	specs, err := resolve(name)
	if err != nil {
		return err
	}
	return withProfiles(*cpuProf, *memProf, func() error {
		violated := 0
		var reports []*scenario.GridReport
		for _, spec := range specs {
			spec.Seeds = *seeds
			if *delta > 0 {
				spec.Delta = *delta
			}
			if *backend != "" {
				spec.Backend = *backend
			}
			if *observe {
				spec.Observe = true
			}
			rep, err := scenario.Grid{Base: spec, Axes: gridAxes, Zip: *zip, Workers: *workers, FailFast: *failfast}.Run()
			if err != nil {
				return err
			}
			violated += rep.TotalViolations()
			reports = append(reports, rep)
			if *format == "text" {
				fmt.Fprintln(out, rep.Text())
			}
		}
		switch *format {
		case "csv":
			fmt.Fprintln(out, scenario.GridCSVHeader)
			for _, rep := range reports {
				for _, row := range rep.CSVRows() {
					fmt.Fprintln(out, row)
				}
			}
		case "json":
			enc, err := json.MarshalIndent(reports, "", "  ")
			if err != nil {
				return err
			}
			fmt.Fprintln(out, string(enc))
		}
		if violated > 0 {
			return fmt.Errorf("%d invariant violation(s) during sweep", violated)
		}
		return nil
	})
}
