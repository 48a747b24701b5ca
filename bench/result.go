package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// workloadResult is one run of one workload.
type workloadResult struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	// Correct is false when any operation failed or any check found
	// something; Findings says what.
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"ops_attempted"`
	Failed    int64    `json:"ops_failed"`
	Findings  []string `json:"findings,omitempty"`
	// Valid is false when the open-loop generator ran late (see lateShare):
	// such a run is invalid, not slow.
	Valid    bool           `json:"valid"`
	EndToEnd metricSet      `json:"end_to_end,omitempty"`
	PerLayer metricSet      `json:"per_layer,omitempty"`
	Info     map[string]any `json:"info"`
	Budget   *layerBudget   `json:"layer_budget,omitempty"`
	// TraceFile is where the traced run's spans were written.
	TraceFile string `json:"trace_file,omitempty"`
}

func newResult(name string, seed int64, seconds float64, traced bool) *workloadResult {
	return &workloadResult{
		Workload: name, Seed: seed, Seconds: seconds, Traced: traced, Valid: true,
		EndToEnd: metricSet{}, PerLayer: metricSet{}, Info: map[string]any{},
	}
}

// layerBudget is the traced run's account of where the leader's event loop
// spends its time, per committed operation.
type layerBudget struct {
	Leader int         `json:"leader"`
	Busy   []budgetRow `json:"busy_us_per_op"`
	// BusyWant is rsm.leader_busy_share × wall ÷ ops: what the busy rows
	// must add up to if the budget accounts for the leader's time.
	BusyWant      float64 `json:"leader_busy_us_per_op"`
	TransitPerMsg float64 `json:"transit_us_per_msg"`
	InboxPerMsg   float64 `json:"inbox_wait_us_per_msg"`
}

type budgetRow struct {
	Name    string  `json:"name"`
	UsPerOp float64 `json:"us_per_op"`
}

func (b *layerBudget) write(w io.Writer, workload string) {
	fmt.Fprintf(w, "layer budget for %s (traced run; µs per committed op at the leader, node %d)\n", workload, b.Leader)
	sum, top := 0.0, b.Busy[0]
	for _, r := range b.Busy {
		fmt.Fprintf(w, "  %-48s %9.2f\n", r.Name, r.UsPerOp)
		sum += r.UsPerOp
		if r.UsPerOp > top.UsPerOp {
			top = r
		}
	}
	fmt.Fprintf(w, "  %-48s %9.2f   (leader_busy_share × wall ÷ ops = %.2f, ratio %.2f)\n",
		"sum of busy rows", sum, b.BusyWant, ratio(sum, b.BusyWant))
	fmt.Fprintf(w, "  waits, per message (not additive with the rows above):\n")
	fmt.Fprintf(w, "  %-48s %9.2f\n", "transit (Send exit → handler delivery)", b.TransitPerMsg)
	fmt.Fprintf(w, "  %-48s %9.2f\n", "inbox wait (delivery → handler start)", b.InboxPerMsg)
	fmt.Fprintf(w, "  top line item: %s\n", top.Name)
}

// header is carried by every result.
type header struct {
	NProc         int     `json:"nproc"`
	GoMaxProcs    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go_version"`
	Kernel        string  `json:"kernel"`
	Commit        string  `json:"git_commit"`
	Seed          int64   `json:"seed"`
	Seconds       float64 `json:"seconds"`
	InjectedDelta string  `json:"injected_delta"`
}

func newHeader(seed int64, seconds float64) header {
	h := header{
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Kernel: "unknown", Commit: "unknown", Seed: seed, Seconds: seconds,
		InjectedDelta: fmt.Sprintf("serve_mem_open: uniform in [0, %v] per message; serve_tcp_closed: none; sim_*: virtual", serveMemOpen.delta),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// document is the full output of -workload all (and of one workload run with
// -out): what bench/results/*.json hold and what -compare reads.
type document struct {
	Header header `json:"header"`
	// Runs holds, per workload, the untraced measurement and then the
	// traced one.
	Runs []*workloadResult `json:"runs"`
	// Layers is the fixed-iteration layer suite.
	Layers metricSet `json:"layer_suite,omitempty"`
	// TraceOverheadShare is 1 − traced/untraced ops_per_s per workload;
	// above 0.15 the traced run's layer numbers are unreliable.
	TraceOverheadShare map[string]float64 `json:"trace_overhead_share,omitempty"`
}

// writeText prints one result for people: every metric by name with its unit.
func (r *workloadResult) writeText(w io.Writer) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "\n== %s (%s, seed %d, %.0fs) ==\n", r.Workload, mode, r.Seed, r.Seconds)
	status := "correct"
	if !r.Correct {
		status = "INCORRECT"
	}
	if !r.Valid {
		status += ", INVALID (generator ran late)"
	}
	fmt.Fprintf(w, "  %s; ops_attempted %d, ops_failed %d\n", status, r.Attempted, r.Failed)
	for _, f := range r.Findings {
		fmt.Fprintf(w, "  finding: %s\n", f)
	}
	writeMetrics(w, r.EndToEnd, endToEnd)
	writeMetrics(w, r.PerLayer, perLayer)
	keys := make([]string, 0, len(r.Info))
	for k := range r.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  info %-32s %v\n", k, r.Info[k])
	}
	if r.Budget != nil {
		r.Budget.write(w, r.Workload)
	}
	if r.TraceFile != "" {
		fmt.Fprintf(w, "  spans written to %s\n", r.TraceFile)
	}
}

// writeMetrics prints the metrics of set in the order of defs, skipping
// those the set lacks.
func writeMetrics(w io.Writer, set metricSet, defs []metricDef) {
	for _, d := range defs {
		if m, ok := set[d.Name]; ok {
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", d.Name, m.Value, d.Unit)
		}
	}
}
