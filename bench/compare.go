package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// -compare a.json b.json holds two result documents (the output of
// -workload all, or of single workloads with -out) against each other: one
// row per (end-to-end metric, workload) with both medians, the bound from
// BENCHMARK.json, and a verdict. It is the tool the "two sets of runs of one
// commit agree" criterion runs, and what a later change is read with.

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readJSON(path string, into any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// Verdicts.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
	verdictImproved   = "improved"
)

// judge compares b against a for one metric. worse is how much worse b's
// median is, as a share of a's; a metric whose own samples spread wider than
// its bound cannot resolve a difference of that size.
func judge(def boundedMetric, a, b metric, exact bool) (verdict string, worse float64) {
	if exact {
		if a.Value == b.Value {
			return verdictOK, 0
		}
		return verdictRegressed, ratio(b.Value-a.Value, a.Value)
	}
	worse = ratio(b.Value-a.Value, a.Value)
	if def.Better == "higher" {
		worse = -worse
	}
	for _, m := range []metric{a, b} {
		if sp, ok := spread(m.Samples); ok && sp > def.Bound {
			return verdictUnresolved, worse
		}
	}
	switch {
	case worse > def.Bound:
		return verdictRegressed, worse
	case worse < -def.Bound:
		return verdictImproved, worse
	}
	return verdictOK, worse
}

// runsBy indexes a document's traced or untraced runs by workload.
func runsBy(doc document, traced bool) map[string]*workloadResult {
	out := map[string]*workloadResult{}
	for _, r := range doc.Runs {
		if r.Traced == traced {
			out[r.Workload] = r
		}
	}
	return out
}

// runCompare prints the table and returns the exit code: non-zero when any
// row regressed or b failed a larger share of its operations.
func runCompare(benchPath, aPath, bPath string) int {
	var bench benchmarkFile
	var a, b document
	for path, into := range map[string]any{benchPath: &bench, aPath: &a, bPath: &b} {
		if err := readJSON(path, into); err != nil {
			fatalf("%v", err)
		}
	}
	sameSeed := a.Header.Seed == b.Header.Seed
	fmt.Printf("a: %s (commit %s, seed %d)\nb: %s (commit %s, seed %d)\n",
		aPath, a.Header.Commit, a.Header.Seed, bPath, b.Header.Commit, b.Header.Seed)
	fmt.Printf("%-18s %-18s %14s %14s %8s %8s  %s\n", "workload", "metric", "a", "b", "worse", "bound", "verdict")
	bad := false
	ua, ub := runsBy(a, false), runsBy(b, false)
	for _, w := range bench.Workloads {
		ra, rb := ua[w.Name], ub[w.Name]
		if ra == nil || rb == nil {
			continue
		}
		for _, def := range bench.EndToEnd {
			exact := sameSeed && exactMetrics[def.Name+"@"+w.Name]
			verdict, worse := judge(def, ra.EndToEnd[def.Name], rb.EndToEnd[def.Name], exact)
			bound := fmt.Sprintf("%.0f%%", 100*def.Bound)
			if exact {
				bound = "exact"
			}
			fmt.Printf("%-18s %-18s %14.4f %14.4f %+7.1f%% %8s  %s\n",
				w.Name, def.Name, ra.EndToEnd[def.Name].Value, rb.EndToEnd[def.Name].Value, 100*worse, bound, verdict)
			bad = bad || verdict == verdictRegressed
		}
		fa, fb := ratio(float64(ra.Failed), float64(ra.Attempted)), ratio(float64(rb.Failed), float64(rb.Attempted))
		verdict := verdictOK
		if fb > fa {
			verdict, bad = verdictRegressed, true
		}
		fmt.Printf("%-18s %-18s %14.6f %14.6f %8s %8s  %s\n", w.Name, "failed share", fa, fb, "", "", verdict)
		if sameSeed {
			if da, db := ra.Info["report_sha256"], rb.Info["report_sha256"]; da != nil && da != db {
				fmt.Printf("%-18s report digest differs: %v vs %v  %s\n", w.Name, da, db, verdictRegressed)
				bad = true
			}
		}
	}
	if sameSeed {
		// Exact per-layer metrics: virtual time and event counts.
		ta, tb := runsBy(a, true), runsBy(b, true)
		for _, w := range bench.Workloads {
			ra, rb := ta[w.Name], tb[w.Name]
			if ra == nil || rb == nil {
				continue
			}
			for _, def := range bench.PerLayer {
				if !exactMetrics[def.Name+"@"+w.Name] {
					continue
				}
				verdict, worse := judge(def, ra.PerLayer[def.Name], rb.PerLayer[def.Name], true)
				fmt.Printf("%-18s %-18s %14.4f %14.4f %+7.1f%% %8s  %s\n",
					w.Name, def.Name, ra.PerLayer[def.Name].Value, rb.PerLayer[def.Name].Value, 100*worse, "exact", verdict)
				bad = bad || verdict == verdictRegressed
			}
		}
	}
	if bad {
		fmt.Println("REGRESSED")
		return 1
	}
	return 0
}
