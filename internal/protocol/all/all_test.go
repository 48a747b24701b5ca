package all_test

import (
	"reflect"
	"testing"

	"repro/internal/core/consensus"
	"repro/internal/core/consensus/consensustest"
	"repro/internal/protocol"

	_ "repro/internal/protocol/all"
)

// TestRegistryInvariants holds, over everything this package registers,
// what each descriptor owes the rest of the tree: a Messages list (trace
// pre-interning and the codec checks read it), at most one visible name per
// implementation package (a variant that is not Hidden silently joins every
// default comparison), and a wire codec for every message of every protocol
// the live runtime accepts, no two of them on one tag.
func TestRegistryInvariants(t *testing.T) {
	visible := make(map[string][]string) // implementation package → visible names
	var wire []consensus.Message
	listed := make(map[reflect.Type]bool)
	for _, d := range protocol.All() {
		if len(d.Messages) == 0 {
			t.Errorf("%s: descriptor lists no Messages", d.Name)
			continue
		}
		pkg := reflect.TypeOf(d.Messages[0]).PkgPath()
		if !d.Hidden {
			visible[pkg] = append(visible[pkg], d.Name)
		}
		if d.NeedsLeaderOracle {
			continue // both live backends refuse it: its messages never reach a socket
		}
		for _, m := range d.Messages {
			if typ := reflect.TypeOf(m); !listed[typ] {
				listed[typ] = true
				wire = append(wire, m)
			}
		}
	}
	for pkg, names := range visible {
		if len(names) > 1 {
			t.Errorf("%s registers %d visible protocols %v; mark the variants Hidden", pkg, len(names), names)
		}
	}
	if len(wire) == 0 {
		t.Fatal("no live-capable protocol registered")
	}
	consensustest.CheckCodecs(t, wire)
}
