package repro_test

// The benchmarks below regenerate every experiment table/figure that
// `go run ./cmd/experiments` prints (README §Reproduced claims). They
// report the experiment's headline metric through b.ReportMetric in units
// of δ, so `go test -bench=.` reproduces the paper's shapes:
//
//	BenchmarkTable1LatencyVsN          — O(δ) vs O(Nδ) across protocols
//	BenchmarkTable2LatencyVsDelta      — linearity in δ, under the bound
//	BenchmarkTable3RestartRecovery     — O(δ) restart recovery
//	BenchmarkTable4EpsilonTradeoff     — ε message/latency trade-off
//	BenchmarkFigure1SessionConvergence — the proof's session ladder
//	BenchmarkTable5ObsoleteBallots     — §2 attack vs §4 immunity
//	BenchmarkTable6StablePath          — 3-message-delay stable path
//	BenchmarkTable7SigmaSweep          — σ sweep against ε+3τ+5δ
//	BenchmarkTable8BConsensus          — §5 algorithm flat in N
//	BenchmarkTable9ClockDrift          — ρ robustness
//
// Each iteration regenerates the full table deterministically; per-op time
// is the cost of the whole experiment.

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/scenario"
)

// benchParams shrinks seeds so a full -bench=. pass stays fast while
// remaining multi-seed.
func benchParams() repro.ExperimentParams {
	p := repro.DefaultExperimentParams()
	p.Seeds = 3
	return p
}

// lastCellDelta extracts the trailing "<x>δ" cell of the last row, the
// experiment's headline number.
func lastCellDelta(b *testing.B, t repro.ExperimentTable, col int) float64 {
	b.Helper()
	row := t.Rows[len(t.Rows)-1]
	cell := strings.TrimSuffix(row[col], "δ")
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		b.Fatalf("cell %q not a δ multiple: %v", row[col], err)
	}
	return v
}

func benchTable(b *testing.B, gen func(repro.ExperimentParams) (repro.ExperimentTable, error), metricCol int, metricName string) {
	b.Helper()
	var tab repro.ExperimentTable
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = gen(benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(lastCellDelta(b, tab, metricCol), metricName)
	if b.N == 1 {
		b.Logf("\n%s", tab.String())
	}
}

func BenchmarkTable1LatencyVsN(b *testing.B) {
	var tab repro.ExperimentTable
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = experiments.Table1LatencyVsN(benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	// Report the N=33 latencies of the contribution vs the baselines.
	b.ReportMetric(lastCellDelta(b, tab, 1), "modpaxos_δ")
	b.ReportMetric(lastCellDelta(b, tab, 2), "tradpaxos_δ")
	b.ReportMetric(lastCellDelta(b, tab, 3), "roundbased_δ")
	b.ReportMetric(lastCellDelta(b, tab, 4), "bconsensus_δ")
	if b.N == 1 {
		b.Logf("\n%s", tab.String())
	}
}

func BenchmarkTable2LatencyVsDelta(b *testing.B) {
	benchTable(b, experiments.Table2LatencyVsDelta, 2, "latency_δ")
}

func BenchmarkTable3RestartRecovery(b *testing.B) {
	benchTable(b, experiments.Table3RestartRecovery, 2, "recovery_δ")
}

func BenchmarkTable4EpsilonTradeoff(b *testing.B) {
	benchTable(b, experiments.Table4EpsilonTradeoff, 2, "latency_δ")
}

func BenchmarkFigure1SessionConvergence(b *testing.B) {
	benchTable(b, experiments.Figure1SessionConvergence, 2, "decide_δ")
}

func BenchmarkTable5ObsoleteBallots(b *testing.B) {
	var tab repro.ExperimentTable
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = experiments.Table5ObsoleteBallots(benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(lastCellDelta(b, tab, 1), "tradpaxos_k8_δ")
	b.ReportMetric(lastCellDelta(b, tab, 2), "modpaxos_k8_δ")
	if b.N == 1 {
		b.Logf("\n%s", tab.String())
	}
}

func BenchmarkTable6StablePath(b *testing.B) {
	benchTable(b, experiments.Table6StablePath, 1, "latency_δ")
}

func BenchmarkTable7SigmaSweep(b *testing.B) {
	benchTable(b, experiments.Table7SigmaSweep, 1, "latency_δ")
}

func BenchmarkTable8BConsensus(b *testing.B) {
	benchTable(b, experiments.Table8BConsensus, 1, "latency_δ")
}

func BenchmarkTable9ClockDrift(b *testing.B) {
	benchTable(b, experiments.Table9ClockDrift, 2, "latency_δ")
}

// BenchmarkSingleRunModifiedPaxos measures the raw simulator throughput of
// one full modified-Paxos run (N=5, unstable start) — the unit of work every
// table is built from.
func BenchmarkSingleRunModifiedPaxos(b *testing.B) {
	var last time.Duration
	for i := 0; i < b.N; i++ {
		res, err := repro.Run(repro.Config{
			Protocol: repro.ModifiedPaxos, N: 5,
			Delta: 10 * time.Millisecond, TS: 200 * time.Millisecond,
			Rho: 0.01, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Decided {
			b.Fatal("run did not decide")
		}
		last = res.LatencyAfterTS
	}
	b.ReportMetric(float64(last)/float64(10*time.Millisecond), "latency_δ")
}

// benchScenario runs one canned scenario per iteration across all its
// protocols and seeds — the unit of work of the scenario engine. It reports
// the modpaxos median latency in δ so the perf trajectory tracks scenario
// throughput and the paper's headline metric together.
func benchScenario(b *testing.B, name string) {
	b.Helper()
	spec, ok := scenario.Lookup(name)
	if !ok {
		b.Fatalf("unknown scenario %q", name)
	}
	spec.Seeds = 3
	var rep *scenario.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = scenario.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Passed() {
			b.Fatalf("scenario %s violations: %+v", name, rep.Violations)
		}
	}
	for _, pr := range rep.Protocols {
		if pr.Protocol == harness.ModifiedPaxos {
			b.ReportMetric(float64(pr.Latency.Median)/float64(rep.Delta), "modpaxos_δ")
		}
	}
	if b.N == 1 {
		b.Logf("\n%s", rep.Text())
	}
}

// BenchmarkScenarioBaselineSynchronous is the cheap end of the scenario
// engine: a stable-from-start run of all four protocols.
func BenchmarkScenarioBaselineSynchronous(b *testing.B) {
	benchScenario(b, "baseline-synchronous")
}

// BenchmarkScenarioObsoleteBallotReplay is the adversarial end: the §2
// attack with worst-case delivery against traditional and modified Paxos.
func BenchmarkScenarioObsoleteBallotReplay(b *testing.B) {
	benchScenario(b, "obsolete-ballot-replay")
}

func BenchmarkTable10EntryRuleAblation(b *testing.B) {
	var tab repro.ExperimentTable
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = experiments.Table10EntryRuleAblation(benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(lastCellDelta(b, tab, 1), "rule_on_δ")
	b.ReportMetric(lastCellDelta(b, tab, 2), "ablated_δ")
	if b.N == 1 {
		b.Logf("\n%s", tab.String())
	}
}

func BenchmarkFigure2OracleRounds(b *testing.B) {
	benchTable(b, experiments.Figure2OracleRounds, 2, "decide_δ")
}

func BenchmarkTable11MessageComplexity(b *testing.B) {
	var tab repro.ExperimentTable
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = experiments.Table11MessageComplexity(benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	last := tab.Rows[len(tab.Rows)-1]
	for col, name := range []string{"", "modpaxos_msgs", "tradpaxos_msgs", "roundbased_msgs", "bconsensus_msgs"} {
		if col == 0 {
			continue
		}
		v, err := strconv.Atoi(last[col])
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(v), name)
	}
	if b.N == 1 {
		b.Logf("\n%s", tab.String())
	}
}

// benchSweepWorkers measures a sweep-style multi-seed grid — one canned
// scenario across every visible protocol with a widened seed matrix, the
// unit of work `scenario sweep` executes per cluster size — at a fixed
// worker-pool size. Serial (1 worker) vs parallel (GOMAXPROCS) quantifies
// the scenario engine's multi-core win.
func benchSweepWorkers(b *testing.B, workers int) {
	b.Helper()
	spec, ok := scenario.Lookup("split-brain-until-TS")
	if !ok {
		b.Fatal("missing canned scenario")
	}
	spec.Seeds = 8
	spec.Workers = workers
	for i := 0; i < b.N; i++ {
		rep, err := scenario.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Passed() {
			b.Fatalf("violations: %+v", rep.Violations)
		}
	}
}

func BenchmarkScenarioSweepSerial(b *testing.B)   { benchSweepWorkers(b, 1) }
func BenchmarkScenarioSweepParallel(b *testing.B) { benchSweepWorkers(b, 0) }

// BenchmarkGrid measures the grid engine end to end on a 2×2 (n × δ)
// cross-product of a canned scenario — the unit of work `scenario sweep`
// executes per multi-axis invocation, with the worker pool spanning all
// cells. The perf trajectory of grid-level workloads starts here.
func BenchmarkGrid(b *testing.B) {
	spec, ok := scenario.Lookup("split-brain-until-TS")
	if !ok {
		b.Fatal("missing canned scenario")
	}
	spec.Seeds = 2
	g := scenario.Grid{
		Base: spec,
		Axes: []scenario.Axis{
			scenario.NAxis(3, 5),
			scenario.DeltaAxis(5*time.Millisecond, 10*time.Millisecond),
		},
	}
	var cells int
	for i := 0; i < b.N; i++ {
		rep, err := g.Run()
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Passed() {
			b.Fatalf("grid violations: %d", rep.TotalViolations())
		}
		cells = len(rep.Cells)
	}
	b.ReportMetric(float64(cells), "cells")
}
