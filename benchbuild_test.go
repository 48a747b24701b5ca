package repro_test

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchModuleBuilds compiles the benchmark driver. bench/ is a module of
// its own (bench/go.mod: module repro/bench, replace repro => ../), so
// `go build ./...` and `go test ./...` at the root never reach it, and a
// change to the main module could break the benchmark with every other test
// green. The test vets bench/ with the environment bench/run.sh builds it
// in, and fails with the compiler's output. What bench/ pins of the main
// module, and so what a change here must keep or carry over:
//
//   - storage.Store's four methods (bench/probe.go's tracedStore implements
//     the interface);
//   - consensus.Environment and consensus.Process (probe.go wraps both, and
//     gen.go's load generator is a Process);
//   - sim.Engine.BeginMulticast(from, aux, payload, n), whose size hint n the
//     engine ignores;
//   - rsm.RegisterMessages;
//   - simnet.NewArena and Arena.Engine;
//   - harness.Run;
//   - scenario.Grid, scenario.CustomAxis, scenario.NAxis and
//     scenario.Library.
func TestBenchModuleBuilds(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go binary on PATH")
	}
	cmd := exec.Command(goBin, "vet", "./...")
	cmd.Dir = "bench"
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOPROXY=off", "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in bench/: %v\n%s", err, out)
	}
}
