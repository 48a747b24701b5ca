package consensustest

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"repro/internal/core/consensus"
)

// CheckWireRoundTrip asserts that m survives its binary codec, and comes
// back exactly as it comes back from gob — the encoding the codec replaced
// on the wire, and still the fallback for types without one. m's type must
// be registered with gob.
func CheckWireRoundTrip(t testing.TB, m consensus.Message) {
	t.Helper()
	b, ok := consensus.AppendMessage(nil, m)
	if !ok {
		t.Fatalf("%T has no binary form", m)
	}
	got, err := consensus.DecodeMessage(b)
	if err != nil {
		t.Fatalf("%T: decode: %v", m, err)
	}
	var buf bytes.Buffer
	var want consensus.Message
	if err := gob.NewEncoder(&buf).Encode(&m); err != nil {
		t.Fatalf("%T: gob encode: %v", m, err)
	}
	if err := gob.NewDecoder(&buf).Decode(&want); err != nil {
		t.Fatalf("%T: gob decode: %v", m, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%T: codec round trip\n got %#v\nwant %#v (gob round trip)", m, got, want)
	}
	// A truncated body must be refused, not misread. (A prefix may itself
	// be a whole message — a SlotMsg cut before its inner message — and
	// must then decode to exactly that. Long bodies are cut near both ends
	// only, to keep the check linear.)
	for n := 1; n < len(b); n++ {
		if n > 64 && n < len(b)-64 {
			continue
		}
		short, err := consensus.DecodeMessage(b[:n])
		if err != nil {
			continue
		}
		if again, _ := consensus.AppendMessage(nil, short); !bytes.Equal(again, b[:n]) {
			t.Fatalf("%T: body cut to %d of %d bytes decoded as %#v", m, n, len(b), short)
		}
	}
}

// CheckCodecs asserts that every sample's type has a binary codec and that
// no two share a wire tag, so a message type added to a protocol without a
// codec fails a test instead of silently taking the gob path.
func CheckCodecs(t testing.TB, samples []consensus.Message) {
	t.Helper()
	seen := make(map[byte]consensus.Message)
	for _, m := range samples {
		b, ok := consensus.AppendMessage(nil, m)
		if !ok {
			t.Errorf("%T (%q) has no wire codec", m, m.Type())
			continue
		}
		if prev, dup := seen[b[0]]; dup {
			t.Errorf("%T and %T share wire tag %d", prev, m, b[0])
		}
		seen[b[0]] = m
	}
}
