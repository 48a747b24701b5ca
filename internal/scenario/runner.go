package scenario

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/protocol"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// Violation is one failed check of one run.
type Violation struct {
	Protocol harness.Protocol `json:"protocol"`
	Seed     int64            `json:"seed"`
	Check    string           `json:"check"`
	Detail   string           `json:"detail"`
}

// ProtocolReport aggregates one protocol's runs across the seed matrix.
type ProtocolReport struct {
	Protocol harness.Protocol `json:"protocol"`
	Seeds    int              `json:"seeds"`
	Decided  int              `json:"decided"`
	// Latency summarizes decision latency after TS (clamped at 0) across
	// seeds; LatencyDeltas is the same rendered in units of δ.
	Latency       trace.Summary `json:"latency_ns"`
	LatencyDeltas string        `json:"latency_in_delta"`
	// Bound is the protocol's declared decision bound (for protocols whose
	// registry descriptor carries one, e.g. modpaxos's ε+3τ+5δ; 0 otherwise).
	Bound time.Duration `json:"bound_ns,omitempty"`
	// Messages summarizes total sends per run; MessagesByType merges the
	// per-type counts over all seeds.
	Messages       trace.Summary  `json:"messages"`
	MessagesByType map[string]int `json:"messages_by_type"`
	// DecisionLatency is the per-process decision-latency histogram merged
	// across all seeds, present only when the spec set Observe (a pointer so
	// unobserved reports keep their exact JSON shape).
	DecisionLatency *trace.HistogramSnapshot `json:"decision_latency,omitempty"`
}

// Report is the structured outcome of one scenario execution.
type Report struct {
	Scenario    string           `json:"scenario"`
	Description string           `json:"description,omitempty"`
	Backend     string           `json:"backend"`
	N           int              `json:"n"`
	Delta       time.Duration    `json:"delta_ns"`
	TS          time.Duration    `json:"ts_ns"`
	Seeds       int              `json:"seeds"`
	Protocols   []ProtocolReport `json:"protocols"`
	Violations  []Violation      `json:"violations"`

	// runs holds the raw cells in (protocol, seed) order when the spec set
	// KeepRuns; unexported so JSON reports stay aggregate-only.
	runs []RunResult
}

// Passed reports whether every check passed on every run.
func (r *Report) Passed() bool { return len(r.Violations) == 0 }

// Runs returns the raw (protocol, seed) results in deterministic order, or
// nil unless the spec set KeepRuns.
func (r *Report) Runs() []RunResult { return r.runs }

// cell is one (protocol, seed) run outcome, produced by the worker pool.
type cell struct {
	run RunResult
	err error
}

// Run executes the scenario across its protocol set and seed matrix.
// Violated invariants are recorded in the report, not returned as errors;
// the error path is reserved for configurations that cannot run at all.
//
// The (protocol, seed) cells are independent — each run owns its engine,
// network, and collector — so they execute on a worker pool (Spec.Workers,
// default GOMAXPROCS). Aggregation and check evaluation happen afterwards
// in deterministic (protocol, seed) order, so the report is identical for
// every worker count.
func Run(spec Spec) (*Report, error) {
	spec = spec.withDefaults()
	cells := execute([]Spec{spec}, spec.Workers)
	return aggregate(spec, cells[0])
}

// arenas holds the simulator storage of idle workers. A worker keeps one
// arena for as long as it runs, so engine event storage and node state are
// reused across every simulator cell it executes; taking it from a pool
// shared by the whole process lets the next Run or Grid.Run start warm too,
// instead of growing a fresh slot pool (megabytes per worker under the
// message-hoarding regimes) on every call. Arena runs are byte-identical to
// fresh runs, so reports stay independent of who ran what before.
var arenas = sync.Pool{New: func() any { return simnet.NewArena() }}

// execute runs every (protocol, seed) cell of every (already defaulted) spec
// on one shared worker pool and returns, per spec, the cell matrix in
// (protocol, seed) order. One pool spans all specs, so a grid's parallelism
// covers the whole cell cross-product rather than one spec at a time.
func execute(specs []Spec, workers int) [][][]cell {
	out := make([][][]cell, len(specs))
	total := 0
	for gi, spec := range specs {
		out[gi] = make([][]cell, len(spec.Protocols))
		for pi := range out[gi] {
			out[gi][pi] = make([]cell, spec.Seeds)
		}
		total += len(spec.Protocols) * spec.Seeds
	}
	type job struct{ gi, pi, si int }
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > total {
		workers = total
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arena := arenas.Get().(*simnet.Arena)
			defer arenas.Put(arena)
			for j := range jobs {
				spec := specs[j.gi]
				p := spec.Protocols[j.pi]
				seed := spec.BaseSeed + int64(j.si)
				slot := &out[j.gi][j.pi][j.si]
				cfg, err := spec.config(p, seed)
				if err != nil {
					slot.err = err
					continue
				}
				if spec.Backend == BackendSim {
					cfg.Arena = arena
				}
				res, err := runCell(spec.Backend, cfg)
				if err != nil {
					slot.err = fmt.Errorf("scenario %s: %s seed %d on %s: %w", spec.Name, p, seed, spec.Backend, err)
					continue
				}
				slot.run = RunResult{Protocol: p, Seed: seed, Cfg: cfg, Res: res}
			}
		}()
	}
	// Feed the largest clusters first: a run's cost grows faster than N, so
	// in grid order a pass would end with one worker on the last big cell
	// while the others idle. Cells are written by index, so the order they
	// run in cannot reach the report.
	order := make([]int, len(specs))
	for gi := range order {
		order[gi] = gi
	}
	sort.SliceStable(order, func(a, b int) bool { return specs[order[a]].N > specs[order[b]].N })
	for _, gi := range order {
		for pi := range specs[gi].Protocols {
			for si := 0; si < specs[gi].Seeds; si++ {
				jobs <- job{gi, pi, si}
			}
		}
	}
	close(jobs)
	wg.Wait()
	return out
}

// aggregate folds one spec's executed cell matrix into its Report,
// evaluating checks in deterministic (protocol, seed) order.
func aggregate(spec Spec, cells [][]cell) (*Report, error) {
	rep := &Report{
		Scenario:    spec.Name,
		Description: spec.Description,
		Backend:     spec.Backend,
		N:           spec.N,
		Delta:       spec.Delta,
		TS:          spec.TS,
		Seeds:       spec.Seeds,
	}
	for pi, p := range spec.Protocols {
		pr := ProtocolReport{Protocol: p, Seeds: spec.Seeds}
		var lats, msgs []time.Duration
		decHist := trace.NewHistogram(trace.UnitNanos)
		for si := 0; si < spec.Seeds; si++ {
			c := cells[pi][si]
			if c.err != nil {
				return nil, c.err
			}
			run := c.run
			if spec.KeepRuns {
				rep.runs = append(rep.runs, run)
			}
			if spec.Observe && run.Res.Collector != nil {
				if h, ok := run.Res.Collector.HistogramCopy(trace.HistDecideLatency); ok {
					if err := decHist.Merge(&h); err != nil {
						return nil, fmt.Errorf("scenario %s: %s seed %d: %w", spec.Name, p, run.Seed, err)
					}
				}
			}
			if run.Res.Decided {
				pr.Decided++
				// Only decided runs contribute a latency: a timed-out
				// run would clamp to 0 and drag the summary toward the
				// best possible value exactly when the protocol failed.
				lats = append(lats, run.LatencyAfterTS())
			}
			msgs = append(msgs, time.Duration(run.Res.Messages))
			pr.MessagesByType = trace.MergeCounts(pr.MessagesByType, run.Res.MessagesByType)
			for _, chk := range spec.Checks {
				if err := chk.Check(run); err != nil {
					rep.Violations = append(rep.Violations, Violation{
						Protocol: p, Seed: run.Seed, Check: chk.Name(), Detail: err.Error(),
					})
				}
			}
		}
		pr.Latency = trace.Summarize(lats)
		pr.LatencyDeltas = pr.Latency.StringInDelta(spec.Delta)
		pr.Messages = trace.Summarize(msgs)
		if decHist.Count() > 0 {
			snap := decHist.Snapshot(trace.HistDecideLatency)
			pr.DecisionLatency = &snap
		}
		if d, err := protocol.Get(string(p)); err == nil && d.DecisionBound != nil {
			if bound, err := d.DecisionBound(protocol.Params{
				Delta: spec.Delta, Sigma: spec.Sigma, Eps: spec.Eps, Rho: spec.Clocks.Rho,
			}); err == nil {
				pr.Bound = bound
			}
		}
		rep.Protocols = append(rep.Protocols, pr)
	}
	return rep, nil
}

// Text renders the report as an aligned table for terminals.
func (r *Report) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s — %s\n", r.Scenario, r.Description)
	fmt.Fprintf(&b, "params: N=%d δ=%v TS=%v seeds=%d backend=%s\n\n", r.N, r.Delta, r.TS, r.Seeds, r.Backend)
	fmt.Fprintf(&b, "%-12s %-8s %-12s %-12s %-10s %-10s\n",
		"protocol", "decided", "latency p50", "latency max", "bound", "msgs p50")
	for _, pr := range r.Protocols {
		bound := "-"
		if pr.Bound > 0 {
			bound = trace.InDelta(pr.Bound, r.Delta)
		}
		fmt.Fprintf(&b, "%-12s %-8s %-12s %-12s %-10s %-10d\n",
			pr.Protocol,
			fmt.Sprintf("%d/%d", pr.Decided, pr.Seeds),
			trace.InDelta(pr.Latency.Median, r.Delta),
			trace.InDelta(pr.Latency.Max, r.Delta),
			bound,
			int64(pr.Messages.Median),
		)
	}
	b.WriteString("\n")
	if hasDecisionLatency(r.Protocols) {
		b.WriteString("decision latency after TS (per process, merged over seeds):\n")
		fmt.Fprintf(&b, "  %-12s %-8s %-12s %-12s %-12s %-12s\n",
			"protocol", "count", "p50", "p95", "p99", "max")
		for _, pr := range r.Protocols {
			h := pr.DecisionLatency
			if h == nil {
				continue
			}
			fmt.Fprintf(&b, "  %-12s %-8d %-12v %-12v %-12v %-12v\n",
				pr.Protocol, h.Count,
				time.Duration(h.P50), time.Duration(h.P95), time.Duration(h.P99),
				time.Duration(h.Max))
		}
		b.WriteString("\n")
	}
	if len(r.Violations) == 0 {
		b.WriteString("violations: none\n")
	} else {
		fmt.Fprintf(&b, "violations: %d\n", len(r.Violations))
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "  %-12s seed=%-6d %-16s %s\n", v.Protocol, v.Seed, v.Check, v.Detail)
		}
	}
	return b.String()
}

// hasDecisionLatency reports whether any protocol carries the observed
// decision-latency histogram.
func hasDecisionLatency(prs []ProtocolReport) bool {
	for _, pr := range prs {
		if pr.DecisionLatency != nil {
			return true
		}
	}
	return false
}

// HistogramSummaries merges every histogram recorded by the kept runs
// (Spec.KeepRuns + Observe), grouped by name across all (protocol, seed)
// cells, and returns the merged snapshots sorted by name. Histograms whose
// units conflict across runs are skipped (cannot happen with the built-in
// instrumentation, which fixes one unit per name).
func (r *Report) HistogramSummaries() []trace.HistogramSnapshot {
	merged := make(map[string]*trace.Histogram)
	for _, run := range r.runs {
		if run.Res.Collector == nil {
			continue
		}
		for _, name := range run.Res.Collector.HistogramNames() {
			h, ok := run.Res.Collector.HistogramCopy(name)
			if !ok {
				continue
			}
			if m, ok := merged[name]; ok {
				if err := m.Merge(&h); err != nil {
					delete(merged, name)
				}
			} else {
				merged[name] = &h
			}
		}
	}
	names := make([]string, 0, len(merged))
	for name := range merged {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]trace.HistogramSnapshot, 0, len(names))
	for _, name := range names {
		out = append(out, merged[name].Snapshot(name))
	}
	return out
}

// JSON renders the report as indented JSON.
func (r *Report) JSON() (string, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out), nil
}
