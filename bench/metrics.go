package main

import (
	"math"
	"sort"
)

// metricDef names one metric and its unit. The two lists below are the
// benchmark's vocabulary; BENCHMARK.json repeats them (bench_test.go keeps the
// two in step) and later issues refer to the names verbatim.
type metricDef struct {
	Name, Unit string
}

// endToEnd is what a user of the system sees. Every workload reports every
// one of them, in its own unit of work ("op"): a committed client operation on
// the serve workloads and on sim_rsm_chaos, one simulated consensus run on
// sim_grid. Latencies are in the clock the workload's clients live in — wall
// time on serve_*, virtual time on sim_* (exact for a given seed).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"op_p99_us", "us"},
	{"alloc_kb_per_op", "KB"},
}

// perLayer is one number per hop. Layer = module name. A traced run reports
// all of them; a layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	// From the traced run's probes.
	{"rsm.ops_per_slot", "count"},
	{"rsm.msgs_per_op", "count"},
	{"rsm.leader_step_us_per_op", "us"},
	{"rsm.follower_step_us_per_op", "us"},
	{"rsm.leader_busy_share", "share"},
	{"rsm.msg_delays_per_commit", "count"},
	{"rsm.busy_per_kop", "count"},
	{"rsm.retries_per_kop", "count"},
	{"rsm.failover_msgs", "count"},
	{"rsm.catchup_vms", "ms"},
	{"rsm.outage_p50_vms", "ms"},
	{"rsm.outage_max_vms", "ms"},
	{"storage.puts_per_op", "count"},
	{"storage.put_us_per_op", "us"},
	{"live.tcp.send_us_per_msg", "us"},
	{"live.tcp.transit_us_per_msg", "us"},
	{"live.tcp.msgs_per_s", "1/s"},
	{"live.mem.send_us_per_msg", "us"},
	{"live.mem.transit_us_per_msg", "us"},
	{"live.node.inbox_wait_us_per_msg", "us"},
	{"live.node.timer_fires_per_op", "count"},
	{"sim.events_per_op", "count"},
	{"sim.events_per_s", "1/s"},
	{"core.modpaxos.decide_max_delta", "delta"},
	{"gen.late_p99_us", "us"},
	{"gen.backlog_max", "count"},
	// From the fixed-iteration layer suite.
	{"sim.step_ns", "ns"},
	{"sim.multicast_ns_per_rcpt", "ns"},
	{"simnet.route_ns_per_msg", "ns"},
	{"simnet.fate_ns_per_msg", "ns"},
	{"simnet.broadcast_n1000_ms", "ms"},
	{"core.modpaxos.run_us", "us"},
	{"core.paxos.run_us", "us"},
	{"core.roundbased.run_us", "us"},
	{"core.bconsensus.run_us", "us"},
	{"core.modpaxos.run_allocs", "count"},
	{"scenario.overhead_share", "share"},
	{"storage.mem_put_plain_ns", "ns"},
	{"storage.mem_put_gob_ns", "ns"},
	{"storage.file_put_us", "us"},
	{"rsm.batch.encode_ns_per_cmd", "ns"},
	{"rsm.batch.decode_ns_per_cmd", "ns"},
	{"rsm.snapshot.encode_us", "us"},
	{"live.tcp.rtt_us", "us"},
	{"live.tcp.oneway_msgs_per_s", "1/s"},
	{"live.mem.rtt_us", "us"},
	{"live.policy.overhead_ns_per_msg", "ns"},
	{"trace.hist_observe_ns", "ns"},
	{"trace.counter_id_ns", "ns"},
	{"trace.counter_str_ns", "ns"},
}

// exactMetrics are virtual-time or count metrics that a change which does not
// alter protocol behaviour must leave bit-identical at a given seed; -compare
// demands equality instead of a bound. Keys are "metric@workload".
var exactMetrics = map[string]bool{
	"op_p50_us@sim_grid":                      true,
	"op_p99_us@sim_grid":                      true,
	"op_p50_us@sim_rsm_chaos":                 true,
	"op_p99_us@sim_rsm_chaos":                 true,
	"core.modpaxos.decide_max_delta@sim_grid": true,
	"rsm.outage_p50_vms@sim_rsm_chaos":        true,
	"rsm.outage_max_vms@sim_rsm_chaos":        true,
	"sim.events_per_op@sim_rsm_chaos":         true,
}

// metric is one reported value. Samples holds the per-segment or per-pass
// values a median was taken over, so -compare can size the run-to-run spread.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
}

// metricSet maps metric names to values.
type metricSet map[string]metric

// fill returns exactly the metrics of defs as bare values with their units —
// the driver's result line — reading 0 for those the run did not produce.
func (s metricSet) fill(defs []metricDef) metricSet {
	out := make(metricSet, len(defs))
	for _, d := range defs {
		out[d.Name] = metric{Value: s[d.Name].Value, Unit: d.Unit}
	}
	return out
}

// set records a value under a declared metric name, with that metric's unit.
func (s metricSet) set(name string, v float64, samples ...float64) {
	s[name] = metric{Value: v, Unit: unitOf[name], Samples: samples}
}

// unitOf maps every declared metric name to its unit.
var unitOf = func() map[string]string {
	units := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.Name] = d.Unit
	}
	return units
}()

// percentile returns the p-th percentile (0..1) of sorted values, linearly
// interpolated between ranks.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := p * float64(len(sorted)-1)
	lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
	return sorted[lo] + (rank-float64(lo))*(sorted[hi]-sorted[lo])
}

// median returns the median of vals (0 when empty) without reordering them.
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// spread is the interquartile range as a share of the median — the run-to-run
// noise -compare holds against a metric's bound. It needs four samples.
func spread(vals []float64) (float64, bool) {
	if len(vals) < 4 {
		return 0, false
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	med := percentile(s, 0.5)
	if med == 0 {
		return 0, false
	}
	return (percentile(s, 0.75) - percentile(s, 0.25)) / math.Abs(med), true
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
