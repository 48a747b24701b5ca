package scenario

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/trace"
)

// The paper states every claim as a function of the model parameters —
// latency in units of δ, the ε+3τ+5δ bound's dependence on σ and ρ — so a
// single-axis sweep over N cannot draw the phase diagrams the related work
// lives by. A Grid takes a base Spec plus any subset of parameter axes,
// executes every cell through the scenario engine's worker pool (cells are
// independent, so parallelism spans the whole grid), and aggregates into a
// GridReport with text/CSV/JSON renderers. The experiment tables, the sweep
// CLI, and the benchmarks all run through it.

// AxisValue is one point of an axis: how it modifies the base Spec and the
// canonical label it carries in reports.
type AxisValue struct {
	// Label renders the value in report coordinates ("5ms", "0.01", "17").
	Label string
	// Apply writes the value into a cell's spec.
	Apply func(*Spec)
}

// Axis is one swept parameter: a name and its values in sweep order.
type Axis struct {
	Name   string
	Values []AxisValue
}

// NAxis sweeps the cluster size.
func NAxis(vals ...int) Axis {
	ax := Axis{Name: "n"}
	for _, v := range vals {
		v := v
		ax.Values = append(ax.Values, AxisValue{
			Label: strconv.Itoa(v),
			Apply: func(s *Spec) { s.N = v },
		})
	}
	return ax
}

// durationAxis builds an axis over a time.Duration spec field.
func durationAxis(name string, set func(*Spec, time.Duration), vals []time.Duration) Axis {
	ax := Axis{Name: name}
	for _, v := range vals {
		v := v
		ax.Values = append(ax.Values, AxisValue{
			Label: v.String(),
			Apply: func(s *Spec) { set(s, v) },
		})
	}
	return ax
}

// DeltaAxis sweeps δ, the post-stabilization delivery bound.
func DeltaAxis(vals ...time.Duration) Axis {
	return durationAxis("delta", func(s *Spec, v time.Duration) { s.Delta = v }, vals)
}

// TSAxis sweeps the stabilization time. A zero value means stable from
// start (Spec.StableFromStart), which a bare zero TS cannot express.
func TSAxis(vals ...time.Duration) Axis {
	return durationAxis("ts", func(s *Spec, v time.Duration) {
		s.TS = v
		s.StableFromStart = v == 0
	}, vals)
}

// SigmaAxis sweeps σ, the modified-Paxos session-timer upper bound.
func SigmaAxis(vals ...time.Duration) Axis {
	return durationAxis("sigma", func(s *Spec, v time.Duration) { s.Sigma = v }, vals)
}

// EpsAxis sweeps ε, the heartbeat period.
func EpsAxis(vals ...time.Duration) Axis {
	return durationAxis("eps", func(s *Spec, v time.Duration) { s.Eps = v }, vals)
}

// RhoAxis sweeps the clock-rate error bound ρ.
func RhoAxis(vals ...float64) Axis {
	ax := Axis{Name: "rho"}
	for _, v := range vals {
		v := v
		ax.Values = append(ax.Values, AxisValue{
			Label: strconv.FormatFloat(v, 'g', -1, 64),
			Apply: func(s *Spec) { s.Clocks.Rho = v },
		})
	}
	return ax
}

// AttackKAxis sweeps the strength of the base spec's attack. The base Spec
// chooses the attack kind (Adversary.Attack); a value of 0 disables the
// attack for that cell — the Adversary convention "K=0 scales with N" would
// otherwise make a strength sweep unable to express its own origin.
func AttackKAxis(vals ...int) Axis {
	ax := Axis{Name: "attackk"}
	for _, v := range vals {
		v := v
		ax.Values = append(ax.Values, AxisValue{
			Label: strconv.Itoa(v),
			Apply: func(s *Spec) {
				if v == 0 {
					s.Adversary = AdversaryProfile{}
				} else {
					s.Adversary.K = v
				}
			},
		})
	}
	return ax
}

// CustomAxis builds an axis from arbitrary spec transformations — the
// escape hatch for sweeps over anything a Spec can express (per-column
// protocol+adversary variants, fault schedules, clock profiles).
func CustomAxis(name string, vals ...AxisValue) Axis {
	return Axis{Name: name, Values: vals}
}

// ParseAxis parses a CLI axis argument of the form "name=v1,v2,...".
// Axis names: n, delta, ts, sigma, eps (durations), rho (floats),
// attackk/k (ints).
func ParseAxis(arg string) (Axis, error) {
	name, list, ok := strings.Cut(arg, "=")
	if !ok {
		return Axis{}, fmt.Errorf("axis %q: want name=v1,v2,...", arg)
	}
	name = strings.ToLower(strings.TrimSpace(name))
	var parts []string
	for _, p := range strings.Split(list, ",") {
		if p = strings.TrimSpace(p); p != "" {
			parts = append(parts, p)
		}
	}
	if len(parts) == 0 {
		return Axis{}, fmt.Errorf("axis %q: no values", arg)
	}
	switch name {
	case "n":
		var vals []int
		for _, p := range parts {
			v, err := strconv.Atoi(p)
			if err != nil || v < 1 {
				return Axis{}, fmt.Errorf("axis n: bad cluster size %q", p)
			}
			vals = append(vals, v)
		}
		return NAxis(vals...), nil
	case "delta", "ts", "sigma", "eps":
		var vals []time.Duration
		for _, p := range parts {
			v, err := time.ParseDuration(p)
			if err != nil || v < 0 {
				return Axis{}, fmt.Errorf("axis %s: bad duration %q", name, p)
			}
			vals = append(vals, v)
		}
		switch name {
		case "delta":
			return DeltaAxis(vals...), nil
		case "ts":
			return TSAxis(vals...), nil
		case "sigma":
			return SigmaAxis(vals...), nil
		default:
			return EpsAxis(vals...), nil
		}
	case "rho":
		var vals []float64
		for _, p := range parts {
			v, err := strconv.ParseFloat(p, 64)
			// Written so that NaN, which fails every comparison, fails it too.
			if err != nil || !(v >= 0 && v < 1) {
				return Axis{}, fmt.Errorf("axis rho: bad rate error %q (want 0 ≤ ρ < 1)", p)
			}
			vals = append(vals, v)
		}
		return RhoAxis(vals...), nil
	case "attackk", "k":
		var vals []int
		for _, p := range parts {
			v, err := strconv.Atoi(p)
			if err != nil || v < 0 {
				return Axis{}, fmt.Errorf("axis attackk: bad strength %q", p)
			}
			vals = append(vals, v)
		}
		return AttackKAxis(vals...), nil
	default:
		return Axis{}, fmt.Errorf("unknown axis %q (want n, delta, ts, sigma, eps, rho, or attackk)", name)
	}
}

// Grid is a base scenario swept across parameter axes.
type Grid struct {
	// Base is the scenario every cell starts from.
	Base Spec
	// Axes are the swept parameters. With one axis per call this is the
	// old single-axis sweep; more axes form a cross-product (first axis
	// outermost) unless Zip is set.
	Axes []Axis
	// Zip pairs the axes element-wise instead of crossing them: cell i
	// takes value i of every axis, so all axes must have equal length.
	Zip bool
	// Workers sizes the worker pool shared by every cell's (protocol,
	// seed) matrix; 0 uses GOMAXPROCS. The report is identical for every
	// worker count.
	Workers int
	// FailFast stops scheduling cells after the first cell with a
	// violated check, leaving a partial report (Truncated marks it). Cells
	// are executed one at a time in deterministic order, so the worker
	// pool spans only each cell's (protocol, seed) matrix — a latency
	// trade for large grids whose early cells gate the rest.
	FailFast bool
}

// AxisPoint is one coordinate of a grid cell.
type AxisPoint struct {
	Axis  string `json:"axis"`
	Value string `json:"value"`
}

// CellParams records the model parameters of one cell as specified, so CSV
// rows are self-describing regardless of which axes were swept. Sigma and
// Eps are the spec values: 0 means the protocol's own default (σ's default
// depends on ρ and the protocol, so only the harness can resolve it).
type CellParams struct {
	N       int           `json:"n"`
	Delta   time.Duration `json:"delta_ns"`
	TS      time.Duration `json:"ts_ns"`
	Rho     float64       `json:"rho"`
	Sigma   time.Duration `json:"sigma_ns"`
	Eps     time.Duration `json:"eps_ns"`
	AttackK int           `json:"attack_k"`
}

// GridCell is one executed cell: its coordinates, resolved parameters, and
// the scenario report.
type GridCell struct {
	Coords []AxisPoint `json:"coords"`
	Params CellParams  `json:"params"`
	Report *Report     `json:"report"`
}

// GridReport is the aggregate outcome of a grid execution, in deterministic
// cell order (cross-product row-major, or zip order).
type GridReport struct {
	Name  string     `json:"name"`
	Axes  []string   `json:"axes"`
	Zip   bool       `json:"zipped,omitempty"`
	Cells []GridCell `json:"cells"`
	// Truncated reports that a fail-fast grid stopped before executing
	// every cell: Cells ends with the first violated cell.
	Truncated bool `json:"truncated,omitempty"`
}

// cellSpecs resolves every cell of the grid into a concrete Spec plus its
// coordinates, in deterministic order.
func (g Grid) cellSpecs() ([]Spec, [][]AxisPoint, error) {
	seen := make(map[string]bool, len(g.Axes))
	for _, ax := range g.Axes {
		if len(ax.Values) == 0 {
			return nil, nil, fmt.Errorf("grid: axis %q has no values", ax.Name)
		}
		if seen[ax.Name] {
			// A repeated axis would silently overwrite itself cell by cell,
			// leaving coordinates that lie about the parameters run.
			return nil, nil, fmt.Errorf("grid: axis %q given twice", ax.Name)
		}
		seen[ax.Name] = true
	}
	if g.Zip && len(g.Axes) > 0 {
		for _, ax := range g.Axes[1:] {
			if len(ax.Values) != len(g.Axes[0].Values) {
				return nil, nil, fmt.Errorf("grid: zipped axes must have equal lengths (%s has %d, %s has %d)",
					g.Axes[0].Name, len(g.Axes[0].Values), ax.Name, len(ax.Values))
			}
		}
	}
	var specs []Spec
	var coords [][]AxisPoint
	emit := func(idx []int) {
		spec := g.Base
		pts := make([]AxisPoint, len(g.Axes))
		for ai, ax := range g.Axes {
			v := ax.Values[idx[ai]]
			v.Apply(&spec)
			pts[ai] = AxisPoint{Axis: ax.Name, Value: v.Label}
		}
		specs = append(specs, spec.withDefaults())
		coords = append(coords, pts)
	}
	if len(g.Axes) == 0 {
		emit(nil)
	} else if g.Zip {
		for i := range g.Axes[0].Values {
			idx := make([]int, len(g.Axes))
			for ai := range idx {
				idx[ai] = i
			}
			emit(idx)
		}
	} else {
		idx := make([]int, len(g.Axes))
		for {
			emit(idx)
			ai := len(idx) - 1
			for ; ai >= 0; ai-- {
				idx[ai]++
				if idx[ai] < len(g.Axes[ai].Values) {
					break
				}
				idx[ai] = 0
			}
			if ai < 0 {
				break
			}
		}
	}
	return specs, coords, nil
}

// Run executes every cell of the grid on one shared worker pool and
// aggregates the reports. As with Run, violated invariants are recorded in
// the cell reports; the error path is reserved for cells that cannot run at
// all (the first failing cell, in deterministic cell order, is returned).
func (g Grid) Run() (*GridReport, error) {
	specs, coords, err := g.cellSpecs()
	if err != nil {
		return nil, err
	}
	rep := &GridReport{Name: g.Base.Name, Zip: g.Zip && len(g.Axes) > 1}
	for _, ax := range g.Axes {
		rep.Axes = append(rep.Axes, ax.Name)
	}
	appendCell := func(i int, matrix [][]cell) error {
		spec := specs[i]
		r, err := aggregate(spec, matrix)
		if err != nil {
			return fmt.Errorf("grid cell %s: %w", coordString(coords[i]), err)
		}
		params := CellParams{
			N: spec.N, Delta: spec.Delta, TS: spec.TS,
			Rho: spec.Clocks.Rho, Sigma: spec.Sigma, Eps: spec.Eps,
		}
		if spec.Adversary.Attack != "" && spec.Adversary.Attack != harness.NoAttack {
			params.AttackK = spec.Adversary.strength(spec.N)
		}
		rep.Cells = append(rep.Cells, GridCell{Coords: coords[i], Params: params, Report: r})
		return nil
	}
	if g.FailFast {
		// One cell at a time, in deterministic order; the first violated
		// cell is the last one in the report.
		for i := range specs {
			matrices := execute(specs[i:i+1], g.Workers)
			if err := appendCell(i, matrices[0]); err != nil {
				return nil, err
			}
			if len(rep.Cells[len(rep.Cells)-1].Report.Violations) > 0 {
				rep.Truncated = i+1 < len(specs)
				break
			}
		}
		return rep, nil
	}
	matrices := execute(specs, g.Workers)
	for i := range specs {
		if err := appendCell(i, matrices[i]); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// coordString renders cell coordinates as "n=5 delta=10ms".
func coordString(pts []AxisPoint) string {
	if len(pts) == 0 {
		return "(base)"
	}
	parts := make([]string, len(pts))
	for i, p := range pts {
		parts[i] = p.Axis + "=" + p.Value
	}
	return strings.Join(parts, " ")
}

// Passed reports whether every check passed in every cell.
func (r *GridReport) Passed() bool { return r.TotalViolations() == 0 }

// TotalViolations counts failed checks across all cells.
func (r *GridReport) TotalViolations() int {
	n := 0
	for _, c := range r.Cells {
		n += len(c.Report.Violations)
	}
	return n
}

// protocolOrder returns the union of protocol names across cells in order
// of first appearance (cells may carry different protocol sets when a
// custom axis varies them).
func (r *GridReport) protocolOrder() []harness.Protocol {
	var order []harness.Protocol
	seen := make(map[harness.Protocol]bool)
	for _, c := range r.Cells {
		for _, pr := range c.Report.Protocols {
			if !seen[pr.Protocol] {
				seen[pr.Protocol] = true
				order = append(order, pr.Protocol)
			}
		}
	}
	return order
}

// Text renders the grid as an aligned matrix — one row per cell, one
// median-latency column (in δ) per protocol, "!" marking cells with
// violations — followed by the violation details.
func (r *GridReport) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "grid %s — axes: %s\n", r.Name, strings.Join(r.Axes, " × "))
	protos := r.protocolOrder()
	width := 8
	for _, c := range r.Cells {
		if w := len(coordString(c.Coords)); w > width {
			width = w
		}
	}
	fmt.Fprintf(&b, "%-*s  ", width, "cell")
	for _, p := range protos {
		fmt.Fprintf(&b, "%-14s", p)
	}
	b.WriteString("\n")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-*s  ", width, coordString(c.Coords))
		byProto := make(map[harness.Protocol]ProtocolReport, len(c.Report.Protocols))
		for _, pr := range c.Report.Protocols {
			byProto[pr.Protocol] = pr
		}
		for _, p := range protos {
			pr, ok := byProto[p]
			if !ok {
				fmt.Fprintf(&b, "%-14s", "-")
				continue
			}
			cell := trace.InDelta(pr.Latency.Median, c.Report.Delta)
			if len(c.Report.Violations) > 0 {
				cell += "!"
			}
			fmt.Fprintf(&b, "%-14s", cell)
		}
		b.WriteString("\n")
	}
	if v := r.TotalViolations(); v > 0 {
		fmt.Fprintf(&b, "\nviolations: %d\n", v)
		for _, c := range r.Cells {
			for _, viol := range c.Report.Violations {
				fmt.Fprintf(&b, "  %-20s %-12s seed=%-6d %-16s %s\n",
					coordString(c.Coords), viol.Protocol, viol.Seed, viol.Check, viol.Detail)
			}
		}
	}
	if r.Truncated {
		b.WriteString("\n(fail-fast: remaining cells were not executed)\n")
	}
	return b.String()
}

// GridCSVHeader is the stable CSV column order of grid reports. Every row
// carries the cell's full resolved parameters, so the schema is identical
// whatever axes were swept.
// The decision-latency quantile columns trail the schema (appended, never
// inserted) so prefix-matching consumers survive; they are 0 unless the base
// spec set Observe.
const GridCSVHeader = "scenario,n,delta_ns,ts_ns,rho,sigma_ns,eps_ns,attack_k," +
	"protocol,seeds,decided,latency_median_ns,latency_median_deltas,latency_max_ns," +
	"bound_ns,messages_median,violations," +
	"decision_p50_ns,decision_p95_ns,decision_p99_ns"

// CSVRows renders one row per (cell, protocol) pair, in deterministic
// order, without the header (so multiple grids can share one stream).
func (r *GridReport) CSVRows() []string {
	var rows []string
	for _, c := range r.Cells {
		p := c.Params
		for _, pr := range c.Report.Protocols {
			nViol := 0
			for _, v := range c.Report.Violations {
				if v.Protocol == pr.Protocol {
					nViol++
				}
			}
			var p50, p95, p99 int64
			if h := pr.DecisionLatency; h != nil {
				p50, p95, p99 = h.P50, h.P95, h.P99
			}
			rows = append(rows, fmt.Sprintf("%s,%d,%d,%d,%s,%d,%d,%d,%s,%d,%d,%d,%.3f,%d,%d,%d,%d,%d,%d,%d",
				r.Name, p.N, int64(p.Delta), int64(p.TS),
				strconv.FormatFloat(p.Rho, 'g', -1, 64), int64(p.Sigma), int64(p.Eps), p.AttackK,
				pr.Protocol, pr.Seeds, pr.Decided,
				int64(pr.Latency.Median), float64(pr.Latency.Median)/float64(c.Report.Delta),
				int64(pr.Latency.Max), int64(pr.Bound), int64(pr.Messages.Median), nViol,
				p50, p95, p99))
		}
	}
	return rows
}

// CSV renders the full report: the stable header plus one row per
// (cell, protocol) pair.
func (r *GridReport) CSV() string {
	return GridCSVHeader + "\n" + strings.Join(r.CSVRows(), "\n") + "\n"
}

// JSON renders the report as indented JSON.
func (r *GridReport) JSON() (string, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out), nil
}

// AxisNames lists the parseable CLI axis names, for usage strings.
func AxisNames() []string {
	names := []string{"n", "delta", "ts", "sigma", "eps", "rho", "attackk"}
	sort.Strings(names)
	return names
}
