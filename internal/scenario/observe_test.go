package scenario

import (
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/trace"
)

// observeSpec is a small two-protocol spec with a real pre-TS outage so the
// decision-latency histogram carries nonzero samples.
func observeSpec() Spec {
	return Spec{
		Name:      "observe-test",
		Protocols: []harness.Protocol{harness.ModifiedPaxos, harness.RoundBased},
		TS:        100 * time.Millisecond,
		Seeds:     2,
	}
}

// TestObserveDoesNotPerturbReport pins the contract stated on Spec.Observe:
// turning observation on changes nothing about the run — the aggregate
// report is byte-identical once the (intentionally added) histogram blocks
// are stripped.
func TestObserveDoesNotPerturbReport(t *testing.T) {
	plainSpec, obsSpec := observeSpec(), observeSpec()
	obsSpec.Observe = true
	plain, err := Run(plainSpec)
	if err != nil {
		t.Fatal(err)
	}
	observed, err := Run(obsSpec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range observed.Protocols {
		if observed.Protocols[i].DecisionLatency == nil {
			t.Errorf("%s: observed report missing decision-latency histogram", observed.Protocols[i].Protocol)
		}
		observed.Protocols[i].DecisionLatency = nil
	}
	pj, err := plain.JSON()
	if err != nil {
		t.Fatal(err)
	}
	oj, err := observed.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if pj != oj {
		t.Fatalf("observation changed the report:\nplain:\n%s\nobserved:\n%s", pj, oj)
	}
}

// TestObservedReportQuantiles checks the merged histogram is coherent: N
// samples per seed, ordered quantiles, all within [min, max], and rendered
// in the text report.
func TestObservedReportQuantiles(t *testing.T) {
	spec := observeSpec()
	spec.Observe = true
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range rep.Protocols {
		h := pr.DecisionLatency
		if h == nil {
			t.Fatalf("%s: no decision-latency histogram", pr.Protocol)
		}
		if want := int64(spec.Seeds * 5); h.Count != want {
			t.Errorf("%s: count = %d, want %d (N per seed)", pr.Protocol, h.Count, want)
		}
		if h.P50 <= 0 || h.P50 > h.P95 || h.P95 > h.P99 {
			t.Errorf("%s: unordered quantiles p50=%d p95=%d p99=%d", pr.Protocol, h.P50, h.P95, h.P99)
		}
		if h.P50 < h.Min || h.P99 > h.Max {
			t.Errorf("%s: quantiles leave [min=%d, max=%d]", pr.Protocol, h.Min, h.Max)
		}
	}
	text := rep.Text()
	if !strings.Contains(text, "decision latency after TS") {
		t.Errorf("text report missing decision-latency table:\n%s", text)
	}
}

// TestGridCSVDecisionLatencyColumns is the golden for the three appended
// quantile columns: zero without Observe, populated and ordered with it.
func TestGridCSVDecisionLatencyColumns(t *testing.T) {
	base := Spec{
		Name:      "grid-observe",
		Protocols: []harness.Protocol{harness.ModifiedPaxos},
		TS:        100 * time.Millisecond,
		Seeds:     2,
	}
	tail := func(rep *GridReport) []string {
		rows := rep.CSVRows()
		if len(rows) != 1 {
			t.Fatalf("got %d rows, want 1", len(rows))
		}
		fields := strings.Split(rows[0], ",")
		if len(fields) != 20 {
			t.Fatalf("row has %d fields, want 20: %q", len(fields), rows[0])
		}
		return fields[17:]
	}

	rep, err := Grid{Base: base}.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range tail(rep) {
		if f != "0" {
			t.Errorf("unobserved grid: quantile column %d = %q, want 0", i, f)
		}
	}

	base.Observe = true
	rep, err = Grid{Base: base}.Run()
	if err != nil {
		t.Fatal(err)
	}
	q := tail(rep)
	var ns [3]int64
	for i, f := range q {
		d, err := time.ParseDuration(f + "ns")
		if err != nil {
			t.Fatalf("quantile column %d = %q: %v", i, f, err)
		}
		ns[i] = int64(d)
	}
	if ns[0] <= 0 || ns[0] > ns[1] || ns[1] > ns[2] {
		t.Errorf("observed grid quantile columns %v: want 0 < p50 ≤ p95 ≤ p99", ns)
	}
}

// TestHistogramSummaries checks the whole-run histogram roll-up used by the
// CLI's -hist flag: per-type delivery latencies and the decide latency all
// appear, name-sorted, merged over every kept run.
func TestHistogramSummaries(t *testing.T) {
	spec := observeSpec()
	spec.Observe = true
	spec.KeepRuns = true
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	sums := rep.HistogramSummaries()
	if len(sums) == 0 {
		t.Fatal("no histogram summaries from an observed run")
	}
	for i := 1; i < len(sums); i++ {
		if sums[i].Name < sums[i-1].Name {
			t.Fatalf("summaries not name-sorted: %q after %q", sums[i].Name, sums[i-1].Name)
		}
	}
	byName := make(map[string]trace.HistogramSnapshot, len(sums))
	for _, s := range sums {
		byName[s.Name] = s
	}
	dec, ok := byName[trace.HistDecideLatency]
	if !ok {
		t.Fatalf("summaries missing %q: %v", trace.HistDecideLatency, byName)
	}
	// 2 protocols × 2 seeds × 5 processes.
	if want := int64(2 * 2 * 5); dec.Count != want {
		t.Errorf("decide-latency count = %d, want %d", dec.Count, want)
	}
	sawDelivery := false
	for name := range byName {
		if strings.HasPrefix(name, trace.HistDeliveryPrefix) {
			sawDelivery = true
		}
	}
	if !sawDelivery {
		t.Error("no per-type delivery histograms in the summaries")
	}
}

// TestLibrarySpansAreClosed is span pairing as a runtime assertion: on every
// library regime × protocol, each phase span a process begins is ended on
// whatever path the process leaves the phase by (deciding, adopting a
// decision, moving on). What PairSpans closes at run end by design is the
// last leader epoch, the down span of a process crashed for good, and the
// phase that process was in when it died — anything else is a begin whose
// end some path forgot.
func TestLibrarySpansAreClosed(t *testing.T) {
	for _, spec := range Library() {
		spec.Observe, spec.KeepRuns, spec.Seeds = true, true, 2
		rep, err := Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		for _, run := range rep.Runs() {
			snap := run.Res.Collector.Snapshot()
			if snap.SpansDropped > 0 {
				t.Errorf("%s/%s/seed=%d: span ring wrapped (%d events lost); pairing is unchecked",
					spec.Name, run.Protocol, run.Seed, snap.SpansDropped)
			}
			down := make(map[int]bool)
			for _, s := range snap.Spans {
				if s.Open && s.Kind == trace.SpanDown {
					down[s.Proc] = true
				}
			}
			for _, s := range snap.Spans {
				if s.Open && s.Kind != trace.SpanDown && s.Kind != trace.SpanLeaderEpoch && !down[s.Proc] {
					t.Errorf("%s/%s/seed=%d: %s %d of process %d, begun at %v, never ended",
						spec.Name, run.Protocol, run.Seed, s.Kind, s.Value, s.Proc, s.Start)
				}
			}
		}
	}
}
