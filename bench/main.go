// Command bench is the repository's one wall-clock benchmark: the RSM serving
// path on the live runtime (loopback TCP and the in-memory transport), the
// scenario grid and RSM failover on the simulator, a traced rerun that gives
// every layer its own number, and a fixed-iteration layer suite. README.md in
// this directory describes the workloads, the metrics and how they interact.
//
// The driver's contract:
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// prints, as the last line of standard output, one JSON object with the keys
// correct, attempted, failed and metrics — the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Other modes:
//
//	bash bench/run.sh --workload all --seed 1 [--out file.json]
//	bash bench/run.sh --layers
//	bash bench/run.sh --compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// runSeconds is how long one run measures; BENCHMARK.json's run_seconds.
const runSeconds = 20

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	run  func(seed int64, seconds float64, traced bool, outDir string) (*workloadResult, error)
}

// workloads lists the four workloads in the order -workload all runs them.
func workloads() []workload {
	return []workload{
		{serveTCPClosed.name, serveTCPClosed.run},
		{serveMemOpen.name, serveMemOpen.run},
		{simGrid.name, simGrid.run},
		{simRSMChaos.name, simRSMChaos.run},
	}
}

// repoRoot is the -root flag; results name their trace files relative to it.
var repoRoot = "."

// measure runs one workload once.
func (w workload) measure(seed int64, seconds float64, traced bool, outDir string) *workloadResult {
	res, err := w.run(seed, seconds, traced, outDir)
	if err != nil {
		fatalf("%v", err)
	}
	if rel, err := filepath.Rel(repoRoot, res.TraceFile); err == nil && res.TraceFile != "" {
		res.TraceFile = rel
	}
	res.writeText(os.Stdout)
	return res
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run, or \"all\"")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", runSeconds, "how long one run measures")
		traced  = flag.Int("trace", 0, "1 reruns the workload with probes on and reports the per-layer metrics")
		layers  = flag.Bool("layers", false, "run only the layer suite")
		compare = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		out     = flag.String("out", "", "also write the full result document to this file")
		root    = flag.String("root", ".", "repository root (where BENCHMARK.json and bench/ live)")
	)
	flag.Parse()
	repoRoot = *root
	outDir := filepath.Join(*root, "bench", "out")

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatalf("usage: -compare a.json b.json")
		}
		os.Exit(runCompare(filepath.Join(*root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1)))
	case *layers:
		layers, err := layerSuite(fullLayerBudget, outDir)
		if err != nil {
			fatalf("%v", err)
		}
		doc := document{Header: newHeader(*seed, *seconds), Layers: layers}
		fmt.Println("== layer suite ==")
		writeMetrics(os.Stdout, doc.Layers, perLayer)
		writeDoc(*out, doc)
	case *name == "all":
		os.Exit(runAll(*seed, *seconds, outDir, *out))
	case *name != "":
		os.Exit(runOne(*name, *seed, *seconds, *traced == 1, outDir, *out))
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// writeDoc writes the result document to path, if one was asked for.
func writeDoc(path string, doc document) {
	if path == "" {
		return
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatalf("encode %s: %v", path, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatalf("%v", err)
	}
}

// contractLine is the last line of standard output in the driver's contract.
type contractLine struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// runOne runs one workload the way the driver asks: untraced for the
// end-to-end metrics, or traced (plus the layer suite, sized to the same run
// length) for the per-layer ones.
func runOne(name string, seed int64, seconds float64, traced bool, outDir, out string) int {
	var wl *workload
	for _, w := range workloads() {
		if w.name == name {
			w := w
			wl = &w
		}
	}
	if wl == nil {
		fatalf("unknown workload %q", name)
	}
	doc := document{Header: newHeader(seed, seconds)}
	line := contractLine{}
	if !traced {
		res := wl.measure(seed, seconds, false, outDir)
		doc.Runs = append(doc.Runs, res)
		line = contractLine{res.Correct, res.Attempted, res.Failed, res.EndToEnd.fill(endToEnd)}
	} else {
		// The traced workload takes three fifths of the run and the layer
		// suite the rest, so a traced run lasts as long as an untraced one.
		res := wl.measure(seed, seconds*0.6, true, outDir)
		doc.Runs = append(doc.Runs, res)
		var err error
		if doc.Layers, err = layerSuite(seconds*0.4/float64(layerEntries()), outDir); err != nil {
			fatalf("%v", err)
		}
		fmt.Println("\n== layer suite ==")
		writeMetrics(os.Stdout, doc.Layers, perLayer)
		all := metricSet{}
		for k, v := range res.PerLayer {
			all[k] = v
		}
		for k, v := range doc.Layers {
			all[k] = v
		}
		line = contractLine{res.Correct, res.Attempted, res.Failed, all.fill(perLayer)}
	}
	writeDoc(out, doc)
	data, err := json.Marshal(line)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("\n%s\n", data)
	if !line.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload untraced and traced, then the layer suite, and
// prints every metric by name. It exits non-zero when any output is wrong.
func runAll(seed int64, seconds float64, outDir, out string) int {
	doc := document{Header: newHeader(seed, seconds), TraceOverheadShare: map[string]float64{}}
	h, _ := json.Marshal(doc.Header)
	fmt.Printf("header %s\n", h)
	ok := true
	for _, wl := range workloads() {
		plain := wl.measure(seed, seconds, false, outDir)
		tracedRes := wl.measure(seed, tracedSeconds(wl.name, seconds), true, outDir)
		doc.Runs = append(doc.Runs, plain, tracedRes)
		share := 1 - ratio(tracedRes.EndToEnd["ops_per_s"].Value, plain.EndToEnd["ops_per_s"].Value)
		doc.TraceOverheadShare[wl.name] = share
		flag := ""
		if share > 0.15 {
			flag = "  (above 0.15: the layer numbers of this workload are unreliable)"
		}
		fmt.Printf("  trace_overhead_share %.4f%s\n", share, flag)
		ok = ok && plain.Correct && tracedRes.Correct && plain.Valid && tracedRes.Valid
	}
	var err error
	if doc.Layers, err = layerSuite(fullLayerBudget, outDir); err != nil {
		fatalf("%v", err)
	}
	fmt.Println("\n== layer suite ==")
	writeMetrics(os.Stdout, doc.Layers, perLayer)
	if out == "" {
		out = filepath.Join(outDir, fmt.Sprintf("result-seed%d.json", seed))
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			fatalf("%v", err)
		}
	}
	writeDoc(out, doc)
	fmt.Printf("\nfull result written to %s\n", out)
	if !ok {
		fmt.Println("FAILED: at least one run is incorrect or invalid")
		return 1
	}
	return 0
}

// tracedSeconds is the length of the traced rerun in -workload all: six
// seconds on the serve workloads, a sixth of the seeds on the simulator.
func tracedSeconds(name string, seconds float64) float64 {
	if name == serveTCPClosed.name || name == serveMemOpen.name {
		return seconds * 6 / runSeconds
	}
	return seconds / 6
}
