package consensustest

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"repro/internal/core/consensus"
)

// CheckWireRoundTrip asserts that m survives its binary codec, and comes
// back exactly as it comes back from gob: the reference encoding, which
// derives a type's form by reflection and so cannot share a hand-written
// codec's mistakes (a field skipped, two fields swapped, nil confused with
// empty). gob is used here and nowhere on the wire.
func CheckWireRoundTrip(t testing.TB, m consensus.Message) {
	t.Helper()
	b := consensus.AppendMessage(nil, m)
	got, err := consensus.DecodeMessage(b)
	if err != nil {
		t.Fatalf("%T: decode: %v", m, err)
	}
	registerWithGob(m)
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
		if again := consensus.AppendMessage(nil, short); !bytes.Equal(again, b[:n]) {
			t.Fatalf("%T: body cut to %d of %d bytes decoded as %#v", m, n, len(b), short)
		}
	}
}

// registerWithGob makes m's type, and that of any message it wraps, known to
// gob, which sends an interface value by registered name.
func registerWithGob(m consensus.Message) {
	gob.Register(m)
	v := reflect.ValueOf(m)
	for i := 0; v.Kind() == reflect.Struct && i < v.NumField(); i++ {
		if inner, ok := v.Field(i).Interface().(consensus.Message); ok {
			registerWithGob(inner)
		}
	}
}

// CheckCodecs asserts that every sample's type has a binary codec and that
// no two share a wire tag, so a message type added to a protocol without a
// codec fails a test before it panics a TCP run.
func CheckCodecs(t testing.TB, samples []consensus.Message) {
	t.Helper()
	seen := make(map[byte]consensus.Message)
	for _, m := range samples {
		b, err := tryAppend(m)
		if err != nil {
			t.Errorf("%T (%q): %v", m, m.Type(), err)
			continue
		}
		if prev, dup := seen[b[0]]; dup {
			t.Errorf("%T and %T share wire tag %d", prev, m, b[0])
		}
		seen[b[0]] = m
	}
}

// tryAppend is AppendMessage with its panic as an error value.
func tryAppend(m consensus.Message) (b []byte, err any) {
	defer func() { err = recover() }()
	return consensus.AppendMessage(nil, m), nil
}
