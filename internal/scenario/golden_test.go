package scenario

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGoldens = flag.Bool("update", false, "rewrite the determinism golden files from the current code")

// goldenSpecs are the canned scenarios whose full JSON reports are pinned at
// fixed seeds. Together they cover every hot path of the simulator: the
// partition-heal policy, the Duplicate/Reorder re-delivery path
// (Fate.Duplicates), the obsolete-ballot adversary's direct injections
// under worst-case delivery, and — via population-dynamics — the batched
// multicast fan-out with arena reuse at n=1000. churn-storm,
// restart-latecomer and coordinator-assassination pin the fault schedules:
// static crash/restart pairs at TS-relative instants, a crash before TS with
// a late restart, and the adaptive assassin's PreStart hook, so a reordered
// crash or restart event shows up here and not only in the benchmark digest.
func goldenSpecs(t *testing.T) []Spec {
	t.Helper()
	names := []string{
		"split-brain-until-TS", "dup-reorder-storm", "obsolete-ballot-replay", "population-dynamics",
		"churn-storm", "restart-latecomer", "coordinator-assassination",
	}
	specs := make([]Spec, 0, len(names))
	for _, name := range names {
		s, ok := Lookup(name)
		if !ok {
			t.Fatalf("canned scenario %q disappeared from the library", name)
		}
		s.Seeds = 3
		specs = append(specs, s)
	}
	return specs
}

// TestDeterminismGoldens pins the byte-exact JSON report (decision counts,
// latency statistics, per-type message counts) of the canned scenarios above at
// fixed seeds. Any change to the simulator's event ordering, the network's
// randomness consumption, or the trace accounting shows up here as a diff —
// this is the proof that the pooled event queue and the closure-free routing
// rewrite preserve schedules bit-for-bit. Regenerate deliberately with
// `go test ./internal/scenario -run Goldens -update` and review the diff.
func TestDeterminismGoldens(t *testing.T) {
	for _, spec := range goldenSpecs(t) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			rep, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			got, err := rep.JSON()
			if err != nil {
				t.Fatal(err)
			}
			got += "\n"
			path := filepath.Join("testdata", "golden_"+spec.Name+".json")
			if *updateGoldens {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to generate): %v", err)
			}
			if got != string(want) {
				t.Errorf("report for %s diverged from the pinned golden.\ngot:\n%s\nwant:\n%s",
					spec.Name, got, want)
			}
		})
	}
}
