package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/harness"
	"repro/internal/scenario"
)

// sim_grid is the paper-reproduction path: scenario.Grid on the sim backend
// over every simulator regime of the canned library × cluster sizes × each
// regime's own protocol set × seeds. It runs sim, simnet, core/*, harness,
// scenario, storage.MemStore and the interned trace counters, and none of
// live or rsm: host time moves only with simulator and protocol CPU, and
// every virtual statistic must stay identical.

// gridParams describes the workload; bench_test.go runs a scaled-down copy.
type gridParams struct {
	name string
	ns   []int
	// cycleSeeds seeds per cell make one cycle, over which the virtual
	// statistics are taken; a cycle runs as passes of passSeeds seeds each,
	// and one pass is one host-time sample.
	cycleSeeds, passSeeds int
	warmSeeds             int
}

var simGrid = gridParams{
	name: "sim_grid", ns: []int{5, 9, 17, 33},
	cycleSeeds: 32, passSeeds: 8, warmSeeds: 2,
}

// skippedRegime is the one library regime that is not a simulator regime of
// the paper's protocols (population scale, hidden protocol family).
const skippedRegime = "population-dynamics"

// decisionTap is a scenario.Check that never fails: it rides along with each
// regime's own checks to see every run's result, which is how the benchmark
// reads per-run decision latencies without keeping the runs.
type decisionTap struct {
	lat      []float64 // modpaxos post-TS decision latency, virtual µs, where positive
	maxDelta float64   // worst modpaxos latency in units of δ
	runs     int64
}

func (*decisionTap) Name() string { return "bench-decision-tap" }

func (t *decisionTap) Check(r scenario.RunResult) error {
	t.runs++
	if r.Protocol != harness.ModifiedPaxos || !r.Res.Decided {
		return nil
	}
	lat := r.LatencyAfterTS()
	if d := float64(lat) / float64(r.Cfg.Delta); d > t.maxDelta {
		t.maxDelta = d
	}
	if lat > 0 {
		// A run that decided before TS meets the bound trivially and reads
		// 0; the paper's quantity is over runs still undecided at TS.
		t.lat = append(t.lat, float64(lat)/1e3)
	}
	return nil
}

// grid builds one pass: seeds baseSeed, baseSeed+1, ... per (regime, n, protocol).
func (p gridParams) grid(seeds int, baseSeed int64, tap *decisionTap) scenario.Grid {
	var regimes []scenario.AxisValue
	for _, spec := range scenario.Library() {
		if spec.Name == skippedRegime {
			continue
		}
		spec := spec
		regimes = append(regimes, scenario.AxisValue{
			Label: spec.Name,
			Apply: func(s *scenario.Spec) {
				checks := spec.Checks
				if len(checks) == 0 {
					checks = scenario.DefaultChecks()
				}
				*s = spec
				s.Seeds, s.BaseSeed = seeds, baseSeed
				s.Checks = append(append([]scenario.Check(nil), checks...), tap)
			},
		})
	}
	workers := runtime.NumCPU()
	if workers > 4 {
		workers = 4
	}
	return scenario.Grid{
		Base:    scenario.Spec{Name: p.name},
		Axes:    []scenario.Axis{scenario.CustomAxis("regime", regimes...), scenario.NAxis(p.ns...)},
		Workers: workers,
	}
}

// gridPass is the outcome of one pass.
type gridPass struct {
	tap        decisionTap
	violations []string
	digest     string // SHA-256 of the CSV report
	host       time.Duration
}

func (p gridParams) pass(seeds int, baseSeed int64) (*gridPass, error) {
	out := &gridPass{}
	began := time.Now()
	rep, err := p.grid(seeds, baseSeed, &out.tap).Run()
	if err != nil {
		return nil, err
	}
	out.host = time.Since(began)
	for _, c := range rep.Cells {
		for _, v := range c.Report.Violations {
			out.violations = append(out.violations, fmt.Sprintf("%v %s seed=%d %s: %s", c.Coords, v.Protocol, v.Seed, v.Check, v.Detail))
		}
	}
	sum := sha256.Sum256([]byte(rep.CSV()))
	out.digest = hex.EncodeToString(sum[:])
	return out, nil
}

// baseSeedFor spaces the workload seeds far enough apart that the seed
// matrices of two seeds never overlap.
func (p gridParams) baseSeedFor(seed int64, pass int) int64 {
	return seed*100000 + int64(pass*p.passSeeds)
}

// run measures the workload: set-up (building the grid and a fixed warm-up
// pass), then passes until the duration is up — always at least one full
// cycle, over which the virtual statistics are taken.
func (p gridParams) run(seed int64, seconds float64, traced bool, _ string) (*workloadResult, error) {
	res := newResult(p.name, seed, seconds, traced)
	passes := p.cycleSeeds / p.passSeeds
	res.Info["seeds_per_cell"] = p.cycleSeeds
	res.Info["cluster_sizes"] = fmt.Sprint(p.ns)

	var setupTimes []float64
	for i := 0; i < setupRepeats(traced); i++ {
		began := time.Now()
		if _, err := p.pass(p.warmSeeds, p.baseSeedFor(seed, passes)); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(began).Seconds())
	}

	var (
		before, after runtime.MemStats
		first         = make([]*gridPass, passes)
		tput          []float64
		runs          int64
		checks        findings
	)
	runtime.ReadMemStats(&before)
	began := time.Now()
	for i := 0; i < passes || time.Since(began).Seconds() < seconds; i++ {
		k := i % passes
		gp, err := p.pass(p.passSeeds, p.baseSeedFor(seed, k))
		if err != nil {
			return nil, err
		}
		runs += gp.tap.runs
		tput = append(tput, float64(gp.tap.runs)/gp.host.Seconds())
		for _, v := range gp.violations {
			checks.addf("%s", v)
		}
		if i < passes {
			first[k] = gp
		} else if gp.digest != first[k].digest {
			checks.addf("pass %d: report digest %s differs from %s in an earlier pass of this invocation", k, gp.digest, first[k].digest)
		}
	}
	runtime.ReadMemStats(&after)

	var lat []float64
	var maxDelta float64
	var digests []string
	for _, gp := range first {
		lat = append(lat, gp.tap.lat...)
		if gp.tap.maxDelta > maxDelta {
			maxDelta = gp.tap.maxDelta
		}
		digests = append(digests, gp.digest)
	}
	sort.Float64s(lat)
	all := sha256.Sum256([]byte(fmt.Sprint(digests)))

	res.Attempted = runs
	res.Failed = int64(checks.count)
	res.Findings = checks.first
	res.Correct = res.Failed == 0
	res.Info["samples"] = len(lat)
	res.Info["host_time_samples"] = len(tput)
	res.Info["report_sha256"] = hex.EncodeToString(all[:])

	res.EndToEnd.set("setup_s", median(setupTimes), setupTimes...)
	res.EndToEnd.set("ops_per_s", median(tput), tput...)
	res.EndToEnd.set("op_p50_us", percentile(lat, 0.50))
	res.EndToEnd.set("op_p99_us", percentile(lat, 0.99))
	res.EndToEnd.set("alloc_kb_per_op", ratio(float64(after.TotalAlloc-before.TotalAlloc)/1024, float64(runs)))
	res.PerLayer.set("core.modpaxos.decide_max_delta", maxDelta)
	return res, nil
}
