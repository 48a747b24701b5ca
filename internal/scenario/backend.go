package scenario

import (
	"fmt"
	"sort"

	"repro/internal/harness"
	"repro/internal/protocol"
)

// Backend is an execution substrate for scenario cells: something that can
// take the harness configuration of one (protocol, seed) cell and produce a
// harness.Result. The deterministic simulator and the live goroutine
// runtime (memory or TCP transport) are the built-ins; because every
// backend reports through the same Result schema, checks, renderers, and
// grids work verbatim whichever substrate a Spec names.
type Backend interface {
	// Name is the identifier Specs and CLIs select the backend by.
	Name() string
	// Supports reports (with a nil error) whether the backend can execute
	// the protocol. Spec defaulting uses it to pick the runnable subset;
	// explicitly listed protocols fail the run instead.
	Supports(p harness.Protocol) error
	// Run executes one cell. Configurations carrying features the backend
	// cannot honor must return an error, not silently degrade.
	Run(cfg harness.Config) (harness.Result, error)
}

// The built-in backend names (Spec.Backend, `-backend` on the CLIs).
const (
	// BackendSim is the deterministic simulator — the default.
	BackendSim = "sim"
	// BackendLive runs goroutines, real clocks, and the in-memory
	// transport under policy-driven fault injection.
	BackendLive = "live"
	// BackendLiveTCP is BackendLive over loopback TCP: length-prefixed
	// binary frames, each message in its registered wire codec.
	BackendLiveTCP = "live-tcp"
)

// backends is the fixed registry of execution substrates.
var backends = map[string]Backend{
	BackendSim:     simBackend{},
	BackendLive:    liveBackend{},
	BackendLiveTCP: liveBackend{tcp: true},
}

// backendFor resolves a backend name ("" means sim).
func backendFor(name string) (Backend, error) {
	if name == "" {
		name = BackendSim
	}
	b, ok := backends[name]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown backend %q (want %v)", name, BackendNames())
	}
	return b, nil
}

// BackendNames lists the selectable backends, sorted — for CLI usage
// strings and error messages.
func BackendNames() []string {
	names := make([]string, 0, len(backends))
	for name := range backends {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// simBackend executes cells on the deterministic simulator via the harness.
type simBackend struct{}

// Name implements Backend.
func (simBackend) Name() string { return BackendSim }

// Supports implements Backend: the simulator runs every registered
// protocol.
func (simBackend) Supports(p harness.Protocol) error {
	_, err := protocol.Get(string(p))
	return err
}

// Run implements Backend.
func (simBackend) Run(cfg harness.Config) (harness.Result, error) {
	return harness.Run(cfg)
}
