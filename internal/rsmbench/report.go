package rsmbench

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/rsm"
	"repro/internal/trace"
)

// Result is one benchmark run's outcome.
type Result struct {
	Backend      string        `json:"backend"`
	N            int           `json:"n"`
	Clients      int           `json:"clients"`
	Ops          int           `json:"ops_per_client"`
	Keys         int           `json:"keys"`
	MaxBatch     int           `json:"max_batch"`
	MaxInFlight  int           `json:"max_in_flight"`
	MaxQueue     int           `json:"max_queue"`
	Linger       time.Duration `json:"linger_ns"`
	OpenInterval time.Duration `json:"open_interval_ns"`
	Seed         int64         `json:"seed"`

	// Completed is true when every client committed its quota before the
	// horizon.
	Completed bool `json:"completed"`
	// Duration spans run start to the last client's completion: virtual
	// time on the simulator (deterministic), wall time on live.
	Duration  time.Duration `json:"duration_ns"`
	TotalOps  int64         `json:"total_ops"`
	OpsPerSec float64       `json:"ops_per_sec"`
	// Slots is the log length consumed (commands ÷ slots ≈ achieved batch).
	Slots int64 `json:"slots"`
	// Busy counts Busy rejections clients saw; Shed counts leader-side
	// queue rejections; Retries counts client retransmissions.
	Busy    int64 `json:"busy"`
	Shed    int64 `json:"shed"`
	Retries int64 `json:"retries"`

	// Chaos schedule (zero when the run had no crash/compaction): the
	// crash/restart schedule that ran, the snapshot cadence, and the
	// failover silence window the replicas ran with.
	Restarts        []harness.Restart `json:"restarts,omitempty"`
	CompactEvery    int64             `json:"compact_every,omitempty"`
	FailoverTimeout time.Duration     `json:"failover_timeout_ns,omitempty"`

	// Commit is the client-observed submit→ack latency histogram; Slot the
	// proposer's flush→decide latency; Batch the commands-per-slot size.
	Commit *trace.HistogramSnapshot `json:"commit_latency,omitempty"`
	Slot   *trace.HistogramSnapshot `json:"slot_latency,omitempty"`
	Batch  *trace.HistogramSnapshot `json:"batch_size,omitempty"`

	// Outage is the client-observed outage histogram: per crash and client,
	// crash instant → that client's first ack after it. Catchup is the
	// restarted replica's rejoin→caught-up latency. LogKeys counts the
	// rsmlog/ records left in each replica's store after the run — bounded
	// when compaction is on, one per slot otherwise.
	Outage  *trace.HistogramSnapshot `json:"outage,omitempty"`
	Catchup *trace.HistogramSnapshot `json:"catchup_latency,omitempty"`
	LogKeys []int64                  `json:"log_keys,omitempty"`

	Violations []string `json:"violations,omitempty"`

	collector *trace.Collector
	history   *rsm.History // the run's oracle, for tests that read its totals
}

// Collector exposes the run's trace collector (timeline export).
func (r *Result) Collector() *trace.Collector { return r.collector }

// Passed reports whether the run completed with no invariant violations.
func (r *Result) Passed() bool { return r.Completed && len(r.Violations) == 0 }

// header is the shared column layout of Text and CSV.
var columns = []string{
	"backend", "clients", "ops", "batch", "pipeline",
	"duration", "ops/sec", "p50", "p95", "p99",
	"slots", "busy", "retries", "violations",
}

// row renders one result under columns.
func (r *Result) row() []string {
	p50, p95, p99 := "-", "-", "-"
	if r.Commit != nil {
		p50 = time.Duration(r.Commit.P50).String()
		p95 = time.Duration(r.Commit.P95).String()
		p99 = time.Duration(r.Commit.P99).String()
	}
	return []string{
		r.Backend,
		fmt.Sprintf("%d", r.Clients),
		fmt.Sprintf("%d", r.TotalOps),
		fmt.Sprintf("%d", r.MaxBatch),
		fmt.Sprintf("%d", r.MaxInFlight),
		r.Duration.Round(time.Microsecond).String(),
		fmt.Sprintf("%.0f", r.OpsPerSec),
		p50, p95, p99,
		fmt.Sprintf("%d", r.Slots),
		fmt.Sprintf("%d", r.Busy),
		fmt.Sprintf("%d", r.Retries),
		fmt.Sprintf("%d", len(r.Violations)),
	}
}

// Text renders results as an aligned terminal table, with violations (if
// any) listed underneath.
func Text(results []*Result) string {
	var b strings.Builder
	widths := make([]int, len(columns))
	rows := [][]string{columns}
	for _, r := range results {
		rows = append(rows, r.row())
	}
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		for i, cell := range row {
			fmt.Fprintf(&b, "%-*s", widths[i]+2, cell)
		}
		b.WriteString("\n")
	}
	for _, r := range results {
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "violation [%s batch=%d k=%d]: %s\n", r.Backend, r.MaxBatch, r.MaxInFlight, v)
		}
	}
	return b.String()
}

// CSV renders results as comma-separated rows under a header.
func CSV(results []*Result) string {
	var b strings.Builder
	b.WriteString(strings.Join(columns, ","))
	b.WriteString("\n")
	for _, r := range results {
		b.WriteString(strings.Join(r.row(), ","))
		b.WriteString("\n")
	}
	return b.String()
}

// JSON renders results as an indented JSON array.
func JSON(results []*Result) (string, error) {
	out, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out), nil
}
