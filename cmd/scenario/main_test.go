package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// capture runs the CLI with output buffered in memory and returns it.
func capture(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var buf bytes.Buffer
	err := run(args, &buf)
	return buf.String(), err
}

// traceEvent is one event of a Chrome-trace timeline file.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// loadTimeline reads a -timeline file, which must be valid Chrome-trace JSON.
func loadTimeline(t *testing.T, path string) []traceEvent {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("timeline is not valid Chrome-trace JSON: %v", err)
	}
	return doc.TraceEvents
}

func TestListShowsLibrary(t *testing.T) {
	out, err := capture(t, "list")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(strings.TrimSpace(out), "\n") + 1
	if lines < 10 {
		t.Errorf("list shows %d scenarios, want ≥ 10:\n%s", lines, out)
	}
	for _, want := range []string{"split-brain-until-TS", "total-partition", "churn-storm"} {
		if !strings.Contains(out, want) {
			t.Errorf("list missing %q", want)
		}
	}
}

func TestRunScenario(t *testing.T) {
	out, err := capture(t, "run", "-seeds", "1", "baseline-synchronous")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "violations: none") {
		t.Errorf("expected a clean report:\n%s", out)
	}
}

func TestRunFlagsAfterName(t *testing.T) {
	out, err := capture(t, "run", "baseline-synchronous", "-seeds", "1")
	if err != nil {
		t.Fatalf("flags after the name should parse: %v\n%s", err, out)
	}
	if !strings.Contains(out, "seeds=1") {
		t.Errorf("trailing -seeds flag was ignored:\n%s", out)
	}
	if _, err := capture(t, "run", "baseline-synchronous", "stray"); err == nil {
		t.Fatal("stray extra argument should fail")
	}
}

func TestRunJSON(t *testing.T) {
	out, err := capture(t, "run", "-seeds", "1", "-format", "json", "baseline-synchronous")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, `"scenario": "baseline-synchronous"`) {
		t.Errorf("expected JSON output:\n%s", out)
	}
}

func TestRunUnknownScenario(t *testing.T) {
	if _, err := capture(t, "run", "no-such-scenario"); err == nil {
		t.Fatal("unknown scenario should fail")
	}
}

// runNamed runs one seed of each argument list, which names its protocol
// with -protocol; that protocol alone must decide 1/1 in the report.
func runNamed(t *testing.T, cases ...[]string) {
	t.Helper()
	for _, args := range cases {
		out, err := capture(t, append([]string{"run", "-seeds", "1"}, args...)...)
		if err != nil {
			t.Errorf("%v: %v\n%s", args, err, out)
			continue
		}
		rows := regexp.MustCompile(`(?m)^(\S+) +(\d+/\d+) `).FindAllStringSubmatch(out, -1)
		if len(rows) != 1 || rows[0][1] != args[1] || rows[0][2] != "1/1" {
			t.Errorf("%v: want one row, %s decided 1/1:\n%s", args, args[1], out)
		}
	}
}

// TestRunModifiedPaxos: -protocol runs one registered protocol in place of
// the scenario's set, a hidden variant included.
func TestRunModifiedPaxos(t *testing.T) {
	runNamed(t,
		[]string{"-protocol", "modpaxos", "obsolete-ballot-replay"},
		[]string{"-protocol", "modpaxos-norule", "obsolete-ballot-replay"})
}

// TestRunWithAttackAndRestart: paxos decides under the obsolete-ballot
// attack and under a crash/restart.
func TestRunWithAttackAndRestart(t *testing.T) {
	runNamed(t,
		[]string{"-protocol", "paxos", "obsolete-ballot-replay"},
		[]string{"-protocol", "paxos", "restart-latecomer"})
}

// TestRunSynchronousPolicyDecidesBeforeTS: modpaxos under a synchronous
// network with TS at 1s decides before TS, which the latency checks must
// accept.
func TestRunSynchronousPolicyDecidesBeforeTS(t *testing.T) {
	runNamed(t, []string{"-protocol", "modpaxos", "-ts", "1s", "baseline-synchronous"})
}

// TestRunNamedProtocolRejects: an unknown name, and a protocol the backend
// cannot run, are errors — never a run narrowed to nothing that passes.
func TestRunNamedProtocolRejects(t *testing.T) {
	for _, args := range [][]string{
		{"-protocol", "nope", "total-partition"},
		{"-backend", "live", "-protocol", "paxos", "total-partition"},
	} {
		if out, err := capture(t, append([]string{"run", "-seeds", "1"}, args...)...); err == nil {
			t.Errorf("%v: accepted:\n%s", args, out)
		}
	}
}

func TestBadSubcommand(t *testing.T) {
	if _, err := capture(t, "frobnicate"); err == nil {
		t.Fatal("unknown subcommand should fail")
	}
	if _, err := capture(t); err == nil {
		t.Fatal("missing subcommand should fail")
	}
}

func TestSweepSmallest(t *testing.T) {
	out, err := capture(t, "sweep", "-ns", "3", "-seeds", "1", "baseline-synchronous")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "grid baseline-synchronous") || !strings.Contains(out, "modpaxos") {
		t.Errorf("unexpected sweep output:\n%s", out)
	}
}

func TestSweepMultiAxis(t *testing.T) {
	// The acceptance shape: n, delta, and rho swept in one invocation,
	// rendered from the shared GridReport.
	out, err := capture(t, "sweep",
		"-axis", "n=3,5", "-axis", "delta=5ms,10ms", "-axis", "rho=0,0.05",
		"-seeds", "1", "-format", "csv", "baseline-synchronous")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// 2×2×2 cells × 4 visible protocols = 32 rows plus the header.
	if len(lines) != 1+32 {
		t.Fatalf("got %d CSV rows, want 32:\n%s", len(lines)-1, out)
	}
	// Every swept combination appears in the parameter columns.
	seen := make(map[string]bool)
	for _, line := range lines[1:] {
		f := strings.Split(line, ",")
		seen[f[1]+"/"+f[2]+"/"+f[4]] = true
	}
	for _, want := range []string{"3/5000000/0", "5/10000000/0.05"} {
		if !seen[want] {
			t.Errorf("missing grid cell n/delta/rho=%s in:\n%s", want, out)
		}
	}
}

func TestSweepZipRequiresEqualAxes(t *testing.T) {
	if _, err := capture(t, "sweep", "-axis", "n=3,5", "-axis", "delta=5ms", "-zip",
		"-seeds", "1", "baseline-synchronous"); err == nil {
		t.Fatal("zipped axes of unequal length should fail")
	}
	out, err := capture(t, "sweep", "-axis", "n=3,5", "-axis", "delta=5ms,10ms", "-zip",
		"-seeds", "1", "-format", "csv", "baseline-synchronous")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	// 2 zipped cells × 4 protocols + header.
	if lines := strings.Split(strings.TrimSpace(out), "\n"); len(lines) != 1+8 {
		t.Fatalf("zip should produce 8 rows:\n%s", out)
	}
}

func TestSweepRejectsBadAxis(t *testing.T) {
	if _, err := capture(t, "sweep", "-axis", "warp=9", "baseline-synchronous"); err == nil {
		t.Fatal("unknown axis should fail")
	}
}

func TestListShowsProtocols(t *testing.T) {
	out, err := capture(t, "list")
	if err != nil {
		t.Fatal(err)
	}
	// Match the name as a whole leading field, not a substring: "paxos"
	// must not pass just because "modpaxos" is listed.
	listed := func(name string) bool {
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) > 0 && f[0] == name {
				return true
			}
		}
		return false
	}
	for _, want := range []string{"paxos", "modpaxos", "roundbased", "bconsensus", "modpaxos-norule"} {
		if !listed(want) {
			t.Errorf("list missing protocol %q:\n%s", want, out)
		}
	}
}

func TestSweepCSV(t *testing.T) {
	for _, tc := range []struct {
		args []string
		rows int
	}{
		// One row per visible protocol at N=3.
		{[]string{"-ns", "3", "baseline-synchronous"}, 4},
		// The hidden gossip family across a 10× population spread, through
		// the batched fan-out and arena reuse: 2 cells × 3 protocols.
		{[]string{"-axis", "n=100,1000", "population-dynamics"}, 6},
	} {
		out, err := capture(t, append([]string{"sweep", "-seeds", "1", "-format", "csv"}, tc.args...)...)
		if err != nil {
			t.Fatalf("%v: %v\n%s", tc.args, err, out)
		}
		lines := strings.Split(strings.TrimSpace(out), "\n")
		if !strings.HasPrefix(lines[0], "scenario,n,delta_ns,ts_ns,rho,") {
			t.Fatalf("%v: missing CSV header:\n%s", tc.args, out)
		}
		if len(lines) != 1+tc.rows {
			t.Fatalf("%v: got %d CSV rows, want %d:\n%s", tc.args, len(lines)-1, tc.rows, out)
		}
		for _, line := range lines[1:] {
			if fields := strings.Split(line, ","); len(fields) != 20 {
				t.Fatalf("%v: row has %d fields, want 20: %q", tc.args, len(fields), line)
			}
		}
	}
}

func TestSweepJSON(t *testing.T) {
	out, err := capture(t, "sweep", "-ns", "3", "-seeds", "1", "-format", "json", "baseline-synchronous")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	var grids []struct {
		Name  string   `json:"name"`
		Axes  []string `json:"axes"`
		Cells []struct {
			Report struct {
				Protocols []map[string]any `json:"protocols"`
			} `json:"report"`
		} `json:"cells"`
	}
	if err := json.Unmarshal([]byte(out), &grids); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out)
	}
	if len(grids) != 1 || grids[0].Name != "baseline-synchronous" {
		t.Fatalf("unexpected grid list: %+v", grids)
	}
	if len(grids[0].Cells) != 1 || len(grids[0].Cells[0].Report.Protocols) != 4 {
		t.Fatalf("want 1 cell with 4 protocol reports: %+v", grids[0])
	}
}

func TestSweepRejectsUnknownFormat(t *testing.T) {
	if _, err := capture(t, "sweep", "-format", "xml", "baseline-synchronous"); err == nil {
		t.Fatal("unknown sweep format should fail")
	}
}

// TestRunLiveBackend is the CLI face of the live runtime: a canned regime,
// smoke-sized, emitting the same report schema and — wall time standing in
// for virtual time — the same timeline schema as the simulator.
func TestRunLiveBackend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tl.json")
	out, err := capture(t, "run", "-backend", "live", "-short",
		"-n", "3", "-delta", "5ms", "-ts", "50ms", "-timeline", path, "total-partition")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "backend=live") || !strings.Contains(out, "violations: none") {
		t.Errorf("unexpected live report:\n%s", out)
	}
	// The defaulted protocol set on a live backend excludes the
	// oracle-needing baseline; whole-field match as in TestListShowsProtocols.
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == "paxos" {
			t.Errorf("live run included the simulator-only protocol:\n%s", out)
		}
	}
	// One named process per protocol run, each with its run-level span.
	named, runs := 0, 0
	for _, ev := range loadTimeline(t, path) {
		switch {
		case ev.Ph == "M" && ev.Name == "process_name":
			if n, _ := ev.Args["name"].(string); strings.HasSuffix(n, "/live") {
				named++
			}
		case ev.Ph == "X" && ev.Cat == "run":
			runs++
		}
	}
	if named != 3 || runs != 3 {
		t.Errorf("live timeline names %d processes and has %d run spans, want 3 and 3", named, runs)
	}
}

// TestRunLiveTCPBackend drives the same canned regime over real loopback
// sockets.
func TestRunLiveTCPBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping wall-clock TCP scenario CLI test in -short mode")
	}
	out, err := capture(t, "run", "-backend", "live-tcp", "-short",
		"-n", "3", "-delta", "5ms", "-ts", "50ms", "-format", "json", "chaos-monkey")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	var rep struct {
		Backend    string           `json:"backend"`
		Violations []map[string]any `json:"violations"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out)
	}
	if rep.Backend != "live-tcp" || len(rep.Violations) != 0 {
		t.Errorf("unexpected live-tcp report: %+v\n%s", rep, out)
	}
}

func TestRunRejectsUnknownBackend(t *testing.T) {
	if _, err := capture(t, "run", "-backend", "warp", "-seeds", "1", "baseline-synchronous"); err == nil {
		t.Fatal("unknown backend should fail")
	}
}

// TestSweepFailFast pins the CLI wiring of Grid.FailFast on the clean
// path: every cell of a passing sweep still runs and nothing is marked
// truncated (the truncating path is pinned at the library level by
// TestGridFailFastStopsAtFirstViolatedCell).
func TestSweepFailFast(t *testing.T) {
	out, err := capture(t, "sweep", "-ns", "3,5", "-seeds", "1", "-failfast", "baseline-synchronous")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if strings.Contains(out, "fail-fast") {
		t.Errorf("clean fail-fast sweep must not be truncated:\n%s", out)
	}
	if !strings.Contains(out, "n=5") {
		t.Errorf("clean fail-fast sweep must run every cell:\n%s", out)
	}
}

// TestRunTimelineFlag smokes the -timeline exporter end to end: the file
// must be a valid Chrome trace with one pid per run and, for the
// round-based protocol, at least one round span on every node lane.
func TestRunTimelineFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tl.json")
	out, err := capture(t, "run", "-seeds", "1", "-n", "3",
		"-timeline", path, "-hist", "baseline-synchronous")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "timeline: 4 run(s) written to "+path) {
		t.Errorf("missing timeline confirmation line:\n%s", out)
	}
	// -hist printed merged summaries alongside the report.
	if !strings.Contains(out, "histograms (merged over 4 runs):") ||
		!strings.Contains(out, "decide-latency") {
		t.Errorf("-hist output missing merged summaries:\n%s", out)
	}

	events := loadTimeline(t, path)
	// Locate the round-based run via its process_name metadata.
	rbPID := -1
	pids := make(map[int]bool)
	for _, ev := range events {
		pids[ev.PID] = true
		if ev.Ph == "M" && ev.Name == "process_name" {
			if n, _ := ev.Args["name"].(string); strings.Contains(n, "/roundbased/") {
				rbPID = ev.PID
			}
		}
	}
	if len(pids) != 4 {
		t.Errorf("timeline has %d pids, want 4 (one per protocol run)", len(pids))
	}
	if rbPID < 0 {
		t.Fatal("no process_name metadata names the roundbased run")
	}
	// Every node lane (tid = proc+1; tid 0 is the run-level lane) of the
	// round-based run carries at least one round span.
	rounds := make(map[int]int)
	for _, ev := range events {
		if ev.PID == rbPID && ev.Ph == "X" && ev.Cat == "round" {
			rounds[ev.TID]++
		}
	}
	for tid := 1; tid <= 3; tid++ {
		if rounds[tid] == 0 {
			t.Errorf("node lane tid=%d of the roundbased run has no round span (got %v)", tid, rounds)
		}
	}
}

// TestProfileFlagsWriteFiles smokes the -cpuprofile/-memprofile hooks on
// both subcommands: the files must exist and be non-empty pprof output
// after the command returns.
func TestProfileFlagsWriteFiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	if out, err := capture(t, "run", "-seeds", "1",
		"-cpuprofile", cpu, "-memprofile", mem, "baseline-synchronous"); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}

	cpu2 := filepath.Join(dir, "sweep-cpu.prof")
	mem2 := filepath.Join(dir, "sweep-mem.prof")
	if out, err := capture(t, "sweep", "-seeds", "1", "-ns", "3",
		"-cpuprofile", cpu2, "-memprofile", mem2, "baseline-synchronous"); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, p := range []string{cpu2, mem2} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("sweep profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Fatalf("sweep profile %s is empty", p)
		}
	}
}

// TestRSMBenchMatrix crosses -batch and -pipeline into one run per cell and
// checks the CSV carries the knobs and a positive throughput for each.
func TestRSMBenchMatrix(t *testing.T) {
	out, err := capture(t, "rsm-bench", "-clients", "3", "-ops", "4",
		"-batch", "1,8", "-pipeline", "1,4", "-format", "csv")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 1+4 {
		t.Fatalf("got %d CSV rows, want 4 (2 batches × 2 pipelines):\n%s", len(lines)-1, out)
	}
	if !strings.HasPrefix(lines[0], "backend,clients,ops,batch,pipeline,") {
		t.Fatalf("missing CSV header:\n%s", out)
	}
	cells := make(map[string]bool)
	for _, line := range lines[1:] {
		f := strings.Split(line, ",")
		if f[0] != "sim" || f[13] != "0" {
			t.Fatalf("unexpected row %q", line)
		}
		cells[f[3]+"/"+f[4]] = true
	}
	for _, want := range []string{"1/1", "1/4", "8/1", "8/4"} {
		if !cells[want] {
			t.Errorf("missing batch/pipeline cell %s:\n%s", want, out)
		}
	}
}

// TestRSMBenchJSON pins the report schema on a plain run and on the
// failure-handling runs: the leader killed mid-run and restarted behind the
// compaction horizon, on both substrates. The command fails on any
// exactly-once, agreement or completeness violation; a chaos report carries
// one rsmlog/ census per replica. (The simulator's outage series and
// compaction bound are TestChaosLeaderCrashCompletes in internal/rsmbench;
// on live, whether the crash lands before the last ack is wall-clock luck.)
func TestRSMBenchJSON(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		backend string
		ops     int64
		chaos   bool
	}{
		{[]string{"-clients", "2", "-ops", "3"}, "sim", 6, false},
		{[]string{"-clients", "32", "-ops", "20", "-batch", "8", "-pipeline", "4",
			"-crash-leader", "50ms", "-restart-leader", "150ms", "-compact-every", "32"}, "sim", 640, true},
		{[]string{"-backend", "live", "-clients", "8", "-ops", "10", "-delta", "2ms",
			"-crash-leader", "60ms", "-restart-leader", "200ms", "-compact-every", "16",
			"-failover-timeout", "50ms"}, "live", 80, true},
	} {
		out, err := capture(t, append([]string{"rsm-bench", "-format", "json"}, tc.args...)...)
		if err != nil {
			t.Fatalf("%v: %v\n%s", tc.args, err, out)
		}
		var results []struct {
			Backend   string  `json:"backend"`
			TotalOps  int64   `json:"total_ops"`
			OpsPerSec float64 `json:"ops_per_sec"`
			Completed bool    `json:"completed"`
			Commit    *struct {
				P99 float64 `json:"p99"`
			} `json:"commit_latency"`
			Outage     *struct{} `json:"outage"`
			LogKeys    []int64   `json:"log_keys"`
			Violations []string  `json:"violations"`
		}
		if err := json.Unmarshal([]byte(out), &results); err != nil {
			t.Fatalf("%v: output is not JSON: %v\n%s", tc.args, err, out)
		}
		if len(results) != 1 {
			t.Fatalf("%v: want 1 result, got %d", tc.args, len(results))
		}
		r := results[0]
		if r.Backend != tc.backend || !r.Completed || r.TotalOps != tc.ops ||
			r.OpsPerSec <= 0 || r.Commit == nil || r.Commit.P99 <= 0 || len(r.Violations) != 0 {
			t.Fatalf("%v: unexpected result: %+v\n%s", tc.args, r, out)
		}
		if tc.chaos && len(r.LogKeys) != 3 {
			t.Errorf("%v: log_keys = %v, want a census per replica", tc.args, r.LogKeys)
		}
		if tc.chaos && tc.backend == "sim" && r.Outage == nil {
			t.Errorf("%v: no outage in a deterministic leader-crash run", tc.args)
		}
	}
}

// TestRSMBenchLiveBackend smokes the wall-clock path the CI job gates on.
func TestRSMBenchLiveBackend(t *testing.T) {
	out, err := capture(t, "rsm-bench", "-backend", "live",
		"-clients", "2", "-ops", "3", "-delta", "1ms")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "live") {
		t.Errorf("unexpected live bench output:\n%s", out)
	}
}

// TestRSMBenchTimeline smokes the Chrome-trace export of a bench run.
func TestRSMBenchTimeline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	out, err := capture(t, "rsm-bench", "-clients", "2", "-ops", "3", "-timeline", path)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "timeline: 1 run(s) written to "+path) {
		t.Errorf("missing timeline confirmation:\n%s", out)
	}
	ops := 0
	for _, ev := range loadTimeline(t, path) {
		if ev.Ph == "X" && ev.Cat == "rsm-op" {
			ops++
		}
	}
	if ops != 6 {
		t.Errorf("timeline has %d rsm-op spans, want 6", ops)
	}
}

func TestRSMBenchRejectsBadFlags(t *testing.T) {
	if _, err := capture(t, "rsm-bench", "-batch", "0"); err == nil {
		t.Fatal("non-positive batch should fail")
	}
	if _, err := capture(t, "rsm-bench", "-pipeline", "two"); err == nil {
		t.Fatal("non-numeric pipeline should fail")
	}
	if _, err := capture(t, "rsm-bench", "-backend", "warp"); err == nil {
		t.Fatal("unknown backend should fail")
	}
	if _, err := capture(t, "rsm-bench", "stray"); err == nil {
		t.Fatal("positional argument should fail")
	}
	if _, err := capture(t, "rsm-bench", "-format", "xml"); err == nil {
		t.Fatal("unknown format should fail")
	}
	if _, err := capture(t, "rsm-bench", "-restart-leader", "20ms"); err == nil {
		t.Fatal("a restart with no crash should fail")
	}
	if _, err := capture(t, "rsm-bench", "-crash-leader", "50ms", "-restart-leader", "20ms"); err == nil ||
		!strings.Contains(err.Error(), "before its crash") {
		t.Fatalf("a restart before its crash: got %v, want the schedule's error", err)
	}
}
