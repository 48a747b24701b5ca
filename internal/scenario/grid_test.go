package scenario

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
)

// gridBase is a small fast base spec for grid tests: one protocol, one
// seed, synchronous from the start.
func gridBase() Spec {
	return Spec{
		Name:            "grid-test",
		Protocols:       []harness.Protocol{harness.ModifiedPaxos},
		StableFromStart: true,
		Seeds:           1,
	}
}

func TestGridCrossProductOrder(t *testing.T) {
	rep, err := Grid{
		Base: gridBase(),
		Axes: []Axis{
			NAxis(3, 5),
			DeltaAxis(5*time.Millisecond, 10*time.Millisecond),
		},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(rep.Cells))
	}
	want := []string{
		"n=3 delta=5ms", "n=3 delta=10ms",
		"n=5 delta=5ms", "n=5 delta=10ms",
	}
	for i, c := range rep.Cells {
		if got := coordString(c.Coords); got != want[i] {
			t.Errorf("cell %d at %q, want %q (first axis must be outermost)", i, got, want[i])
		}
	}
	// The resolved parameters must reflect the applied axis values.
	if rep.Cells[3].Params.N != 5 || rep.Cells[3].Params.Delta != 10*time.Millisecond {
		t.Errorf("cell 3 params = %+v", rep.Cells[3].Params)
	}
	if got := []string(rep.Axes); len(got) != 2 || got[0] != "n" || got[1] != "delta" {
		t.Errorf("axes = %v", got)
	}
}

// TestGridFailFastStopsAtFirstViolatedCell pins the partial-report shape:
// cells run in deterministic order, the first violated cell is the last one
// in the report, Truncated marks the unexecuted remainder, and the text and
// CSV renderers handle the partial grid.
func TestGridFailFastStopsAtFirstViolatedCell(t *testing.T) {
	pass := AxisValue{Label: "ok", Apply: func(*Spec) {}}
	fail := AxisValue{Label: "bad", Apply: func(s *Spec) {
		// An impossible budget makes the cell deterministically violated.
		s.Checks = []Check{MessageBudget{MaxTotal: 0}}
	}}
	grid := Grid{
		Base:     gridBase(),
		Axes:     []Axis{CustomAxis("variant", pass, fail, pass, pass)},
		FailFast: true,
	}
	rep, err := grid.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("fail-fast executed %d cells, want 2 (stop at the first violated cell)", len(rep.Cells))
	}
	if got := coordString(rep.Cells[1].Coords); got != "variant=bad" {
		t.Errorf("last cell is %q, want the violated one", got)
	}
	if len(rep.Cells[1].Report.Violations) == 0 {
		t.Error("last cell of a truncated report must carry the violation")
	}
	if !rep.Truncated {
		t.Error("partial report must be marked Truncated")
	}
	if !strings.Contains(rep.Text(), "fail-fast") {
		t.Errorf("text renderer does not flag truncation:\n%s", rep.Text())
	}
	if rows := rep.CSVRows(); len(rows) != 2 {
		t.Errorf("CSV has %d rows for a 2-cell single-protocol partial grid", len(rows))
	}

	// Without FailFast the same grid runs every cell and is not truncated.
	grid.FailFast = false
	full, err := grid.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Cells) != 4 || full.Truncated {
		t.Errorf("full grid: %d cells, truncated=%v", len(full.Cells), full.Truncated)
	}

	// A fail-fast grid whose last cell violates is complete, not truncated.
	tail := Grid{
		Base:     gridBase(),
		Axes:     []Axis{CustomAxis("variant", pass, fail)},
		FailFast: true,
	}
	rep, err = tail.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 2 || rep.Truncated {
		t.Errorf("violation in the final cell: %d cells, truncated=%v (nothing was skipped)", len(rep.Cells), rep.Truncated)
	}
}

func TestGridZip(t *testing.T) {
	rep, err := Grid{
		Base: gridBase(),
		Axes: []Axis{
			NAxis(3, 5),
			DeltaAxis(5*time.Millisecond, 10*time.Millisecond),
		},
		Zip: true,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("zipped grid has %d cells, want 2", len(rep.Cells))
	}
	if got := coordString(rep.Cells[1].Coords); got != "n=5 delta=10ms" {
		t.Errorf("zip pairs values element-wise, got %q", got)
	}

	_, err = Grid{
		Base: gridBase(),
		Axes: []Axis{NAxis(3, 5), DeltaAxis(5 * time.Millisecond)},
		Zip:  true,
	}.Run()
	if err == nil || !strings.Contains(err.Error(), "equal lengths") {
		t.Fatalf("unequal zipped axes should fail, got %v", err)
	}

	// Zip with no axes must not panic: it degenerates to the single base
	// cell, like the axis-free cross-product.
	rep, err = Grid{Base: gridBase(), Zip: true}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 1 {
		t.Fatalf("axis-free zipped grid has %d cells, want 1", len(rep.Cells))
	}
}

func TestGridRejectsDuplicateAxis(t *testing.T) {
	_, err := Grid{Base: gridBase(), Axes: []Axis{NAxis(3), NAxis(5)}}.Run()
	if err == nil || !strings.Contains(err.Error(), `axis "n" given twice`) {
		t.Fatalf("duplicate axis should fail, got %v", err)
	}
}

func TestGridCSVGolden(t *testing.T) {
	// The CSV schema is a published interface (plotting scripts consume
	// it): the header is pinned verbatim, and every row
	// must carry the full resolved parameter set in the same column order.
	const wantHeader = "scenario,n,delta_ns,ts_ns,rho,sigma_ns,eps_ns,attack_k," +
		"protocol,seeds,decided,latency_median_ns,latency_median_deltas,latency_max_ns," +
		"bound_ns,messages_median,violations," +
		"decision_p50_ns,decision_p95_ns,decision_p99_ns"
	if GridCSVHeader != wantHeader {
		t.Fatalf("CSV header changed:\n got %s\nwant %s", GridCSVHeader, wantHeader)
	}
	rep, err := Grid{
		Base: gridBase(),
		Axes: []Axis{NAxis(3), RhoAxis(0, 0.05)},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	out := rep.CSV()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != wantHeader {
		t.Fatalf("CSV() must start with the pinned header:\n%s", lines[0])
	}
	if len(lines) != 3 {
		t.Fatalf("got %d rows, want 2 (one per cell-protocol):\n%s", len(lines)-1, out)
	}
	// Golden structural fields of the first row: scenario, n, delta, ts,
	// rho, sigma, eps, attack_k, protocol, seeds, decided.
	fields := strings.Split(lines[1], ",")
	if len(fields) != 20 {
		t.Fatalf("row has %d fields, want 20: %q", len(fields), lines[1])
	}
	wantPrefix := []string{"grid-test", "3", "10000000", "0", "0", "0", "0", "0", "modpaxos", "1", "1"}
	for i, w := range wantPrefix {
		if fields[i] != w {
			t.Errorf("row field %d = %q, want %q (row %q)", i, fields[i], w, lines[1])
		}
	}
	// Second cell carries ρ=0.05 in the rho column.
	if got := strings.Split(lines[2], ",")[4]; got != "0.05" {
		t.Errorf("rho column of second cell = %q, want 0.05", got)
	}
}

func TestGridJSONGolden(t *testing.T) {
	rep, err := Grid{
		Base: gridBase(),
		Axes: []Axis{NAxis(3)},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	s, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Name  string   `json:"name"`
		Axes  []string `json:"axes"`
		Cells []struct {
			Coords []AxisPoint `json:"coords"`
			Params struct {
				N     int   `json:"n"`
				Delta int64 `json:"delta_ns"`
			} `json:"params"`
			Report struct {
				Scenario  string `json:"scenario"`
				Protocols []struct {
					Protocol string `json:"protocol"`
					Decided  int    `json:"decided"`
				} `json:"protocols"`
			} `json:"report"`
		} `json:"cells"`
	}
	if err := json.Unmarshal([]byte(s), &decoded); err != nil {
		t.Fatalf("grid JSON does not match the published shape: %v\n%s", err, s)
	}
	if decoded.Name != "grid-test" || len(decoded.Cells) != 1 {
		t.Fatalf("unexpected decoded report: %+v", decoded)
	}
	c := decoded.Cells[0]
	if c.Params.N != 3 || c.Params.Delta != int64(10*time.Millisecond) {
		t.Errorf("params = %+v", c.Params)
	}
	if len(c.Coords) != 1 || c.Coords[0] != (AxisPoint{Axis: "n", Value: "3"}) {
		t.Errorf("coords = %+v", c.Coords)
	}
	if len(c.Report.Protocols) != 1 || c.Report.Protocols[0].Decided != 1 {
		t.Errorf("report = %+v", c.Report)
	}
}

func TestGridDeterministicAcrossWorkerCounts(t *testing.T) {
	grid := func(workers int) string {
		g := Grid{
			Base:    gridBase(),
			Axes:    []Axis{NAxis(3, 5), DeltaAxis(5*time.Millisecond, 10*time.Millisecond)},
			Workers: workers,
		}
		g.Base.Protocols = []harness.Protocol{harness.ModifiedPaxos, harness.TraditionalPaxos}
		g.Base.Seeds = 2
		rep, err := g.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep.CSV()
	}
	serial, parallel := grid(1), grid(0)
	if serial != parallel {
		t.Fatalf("grid report depends on worker count:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
}

func TestGridCellErrorPropagates(t *testing.T) {
	// Process 9 exists at n=12 but not at n=3: the n=3 cell fails to
	// configure, and the grid must surface that cell's error rather than
	// fold a missing cell into the report.
	base := gridBase()
	base.Restarts = []harness.Restart{{Proc: 9, CrashAt: harness.AfterTS(1)}}
	_, err := Grid{Base: base, Axes: []Axis{NAxis(3, 12)}}.Run()
	if err == nil {
		t.Fatal("invalid cell should fail the grid")
	}
	if !strings.Contains(err.Error(), "n=3") || !strings.Contains(err.Error(), "process 9") {
		t.Errorf("error should name the failing cell and cause: %v", err)
	}
}

func TestParseAxis(t *testing.T) {
	good := map[string]struct {
		name   string
		labels []string
	}{
		"n=3,5,17":       {"n", []string{"3", "5", "17"}},
		"delta=1ms, 5ms": {"delta", []string{"1ms", "5ms"}},
		"ts=0,200ms":     {"ts", []string{"0s", "200ms"}},
		"rho=0,0.01,0.1": {"rho", []string{"0", "0.01", "0.1"}},
		"sigma=50ms":     {"sigma", []string{"50ms"}},
		"eps=1ms":        {"eps", []string{"1ms"}},
		"k=0,2,8":        {"attackk", []string{"0", "2", "8"}},
		"attackk=4":      {"attackk", []string{"4"}},
		"RHO=0.02":       {"rho", []string{"0.02"}},
	}
	for arg, want := range good {
		ax, err := ParseAxis(arg)
		if err != nil {
			t.Errorf("ParseAxis(%q): %v", arg, err)
			continue
		}
		if ax.Name != want.name || len(ax.Values) != len(want.labels) {
			t.Errorf("ParseAxis(%q) = %s/%d values, want %s/%d", arg, ax.Name, len(ax.Values), want.name, len(want.labels))
			continue
		}
		for i, l := range want.labels {
			if ax.Values[i].Label != l {
				t.Errorf("ParseAxis(%q) value %d label %q, want %q", arg, i, ax.Values[i].Label, l)
			}
		}
	}
	for _, bad := range []string{
		"", "n", "n=", "n=0", "n=x", "delta=5", "rho=2", "rho=-0.1",
		"k=-1", "unknown=1", "ts=nope", "rho=NaN", "rho=0.1,nan",
	} {
		if _, err := ParseAxis(bad); err == nil {
			t.Errorf("ParseAxis(%q) should fail", bad)
		}
	}
}

// FuzzParseAxis: parsing never panics, and every value of an accepted axis,
// applied to a Spec, lies in the parameter's documented range — n ≥ 1,
// durations ≥ 0, 0 ≤ ρ < 1 (never NaN), attack strength ≥ 0 — since a value
// outside it fails a run late or, for a NaN ρ, never lets it finish.
func FuzzParseAxis(f *testing.F) {
	for _, seed := range []string{
		"rho=NaN", "rho=0,0.01,0.1", "rho=Inf", "rho=-0", "n=3,5,17", "n=0",
		"delta=1ms, 5ms", "ts=0,200ms", "sigma=50ms", "eps=-1ms", "k=0,2", "attackk=-1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, arg string) {
		ax, err := ParseAxis(arg)
		if err != nil {
			return
		}
		if len(ax.Values) == 0 {
			t.Fatalf("ParseAxis(%q) accepted an axis with no values", arg)
		}
		for _, v := range ax.Values {
			s := Spec{Adversary: AdversaryProfile{Attack: harness.ObsoleteBallots}}
			v.Apply(&s)
			rho := s.Clocks.Rho
			switch {
			case ax.Name == "n" && s.N < 1,
				s.Delta < 0, s.TS < 0, s.Sigma < 0, s.Eps < 0,
				!(rho >= 0 && rho < 1),
				s.Adversary.K < 0:
				t.Fatalf("ParseAxis(%q) accepted %s=%s, which sets %+v", arg, ax.Name, v.Label, s)
			}
		}
	})
}

func TestTSAxisZeroMeansStableFromStart(t *testing.T) {
	ax, err := ParseAxis("ts=0,100ms")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Grid{
		Base: Spec{
			Name:      "ts-axis",
			Protocols: []harness.Protocol{harness.ModifiedPaxos},
			Seeds:     1,
		},
		Axes: []Axis{ax},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Cells[0].Params.TS; got != 0 {
		t.Errorf("ts=0 cell resolved TS=%v; a zero axis value must mean stable-from-start, not the 200ms default", got)
	}
	if got := rep.Cells[1].Params.TS; got != 100*time.Millisecond {
		t.Errorf("ts=100ms cell resolved TS=%v", got)
	}
}
