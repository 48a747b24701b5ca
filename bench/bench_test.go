package main

import (
	"path/filepath"
	"regexp"
	"sort"
	"testing"
	"time"
)

// smallWorkloads are the four workloads at about a fiftieth of their scale:
// the same code paths, finished in well under a second each.
func smallWorkloads() []workload {
	tcp, mem, grid, chaos := serveTCPClosed, serveMemOpen, simGrid, simRSMChaos
	tcp.warmOps, tcp.segments = 200, 2
	mem.delta, mem.warmOps, mem.segments = 4*time.Millisecond, 50, 2
	grid.ns, grid.cycleSeeds, grid.passSeeds, grid.warmSeeds = []int{5}, 2, 1, 1
	chaos.ops, chaos.cycleSeeds, chaos.chunk = 1200, 2, 1
	chaos.followerDown, chaos.followerUp, chaos.crashAt = 20*time.Millisecond, 70*time.Millisecond, 130*time.Millisecond
	return []workload{
		{tcp.name, tcp.run}, {mem.name, mem.run}, {grid.name, grid.run}, {chaos.name, chaos.run},
	}
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

func keys(set metricSet) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWorkloadsSmall runs every workload, untraced and traced, at small
// scale: each must pass its own checker, report exactly the end-to-end
// metrics, none of them zero, and only per-layer metrics the benchmark
// declares.
func TestWorkloadsSmall(t *testing.T) {
	declared := map[string]bool{}
	for _, d := range perLayer {
		declared[d.Name] = true
	}
	outDir := t.TempDir()
	for _, wl := range smallWorkloads() {
		for _, traced := range []bool{false, true} {
			res, err := wl.run(3, 0.3, traced, outDir)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d findings=%v",
					wl.name, traced, res.Correct, res.Attempted, res.Failed, res.Findings)
			}
			if !equal(keys(res.EndToEnd), names(endToEnd)) {
				t.Errorf("%s: end-to-end metrics %v, want %v", wl.name, keys(res.EndToEnd), names(endToEnd))
			}
			for name, m := range res.EndToEnd {
				if m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", wl.name, name, m.Value)
				}
			}
			for name := range res.PerLayer {
				if !declared[name] {
					t.Errorf("%s: per-layer metric %s is not declared in metrics.go", wl.name, name)
				}
			}
			if traced && wl.name != simGrid.name && res.TraceFile == "" {
				t.Errorf("%s: traced run wrote no trace file", wl.name)
			}
		}
	}
}

// TestLayerSuiteRuns runs the whole suite on a tiny budget: every entry must
// produce a positive number (the policy overhead and the scenario share are
// differences and may dip below zero on a tiny budget).
func TestLayerSuiteRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("the N=1000 broadcast entry alone takes over a second")
	}
	m, err := layerSuite(0.003, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range m {
		signed := name == "live.policy.overhead_ns_per_msg" || name == "scenario.overhead_share"
		if v.Value <= 0 && !signed {
			t.Errorf("%s = %v", name, v.Value)
		}
	}
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the code in step: the
// same workloads, the same metric names with the same units, everything
// emitted is declared and everything declared is emitted, and all of it
// inside the contract's limits.
func TestBenchmarkFileMatches(t *testing.T) {
	var bench benchmarkFile
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &bench); err != nil {
		t.Fatal(err)
	}
	if bench.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the code measures for %d", bench.RunSeconds, runSeconds)
	}
	if len(bench.Workloads) > 4 || len(bench.EndToEnd) > 16 || len(bench.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics: over 4 / 16 / 128",
			len(bench.Workloads), len(bench.EndToEnd), len(bench.PerLayer))
	}
	var got []string
	for _, w := range bench.Workloads {
		got = append(got, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	var want []string
	for _, w := range workloads() {
		want = append(want, w.name)
	}
	if !equal(got, want) {
		t.Errorf("workloads %v, the code runs %v", got, want)
	}
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitOK := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	compare := func(kind string, file []boundedMetric, code []metricDef) {
		units := map[string]string{}
		for _, d := range code {
			units[d.Name] = d.Unit
		}
		seen := map[string]bool{}
		for _, m := range file {
			if seen[m.Name] {
				t.Errorf("%s metric %s listed twice", kind, m.Name)
			}
			seen[m.Name] = true
			if !nameOK.MatchString(m.Name) || !unitOK.MatchString(m.Unit) {
				t.Errorf("%s metric %q unit %q: outside the allowed characters", kind, m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s metric %s: better is %q", kind, m.Name, m.Better)
			}
			if u, ok := units[m.Name]; !ok {
				t.Errorf("%s metric %s is in BENCHMARK.json but never emitted", kind, m.Name)
			} else if u != m.Unit {
				t.Errorf("%s metric %s: unit %q in BENCHMARK.json, %q in the code", kind, m.Name, m.Unit, u)
			}
		}
		for _, d := range code {
			if !seen[d.Name] {
				t.Errorf("%s metric %s is emitted but missing from BENCHMARK.json", kind, d.Name)
			}
		}
	}
	compare("end-to-end", bench.EndToEnd, endToEnd)
	compare("per-layer", bench.PerLayer, perLayer)
	for _, m := range bench.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower") {
			t.Errorf("setup_s must be in s, lower is better")
		}
	}
	// The layer suite's table and the tail of perLayer are the same list.
	var suite []string
	for _, e := range layerTable {
		suite = append(suite, e.names...)
	}
	tail := perLayer[len(perLayer)-len(suite):]
	for i, d := range tail {
		if d.Name != suite[i] {
			t.Errorf("layer suite entry %d is %s, perLayer lists %s", i, suite[i], d.Name)
		}
	}
}
