package consensus

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
)

type wireA struct {
	N int64
	S string
}

func (wireA) Type() string { return "wire-a" }

type wireB struct{ On bool }

func (wireB) Type() string { return "wire-b" }

type wireNone struct{}

func (wireNone) Type() string { return "wire-none" }

const tagWireA, tagWireB = 240, 241

func init() {
	RegisterCodec(tagWireA,
		func(b []byte, m wireA) []byte { return AppendString(binary.AppendVarint(b, m.N), m.S) },
		func(r *WireReader) wireA { return wireA{N: r.Varint(), S: r.Str()} })
}

func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), want) {
			t.Errorf("recovered %v, want a panic mentioning %q", r, want)
		}
	}()
	f()
}

// TestRegisterCodecRejectsCollisions: two types sharing a tag would decode
// as each other, so registration — process start — is where it must fail.
func TestRegisterCodecRejectsCollisions(t *testing.T) {
	app := func(b []byte, m wireB) []byte { return AppendBool(b, m.On) }
	dec := func(r *WireReader) wireB { return wireB{On: r.Bool()} }
	mustPanic(t, "reserved tag 0", func() { RegisterCodec(0, app, dec) })
	mustPanic(t, "registered for both", func() { RegisterCodec(tagWireA, app, dec) })
	RegisterCodec(tagWireB, app, dec)
	mustPanic(t, "two codecs", func() { RegisterCodec(tagWireB+1, app, dec) })
	if codecByTag[tagWireB+1] != nil {
		t.Error("a refused registration left its tag behind")
	}
}

func TestAppendAndDecodeMessage(t *testing.T) {
	b := AppendMessage([]byte{9}, wireA{N: -2, S: "hi"})
	if b[0] != 9 || b[1] != tagWireA {
		t.Fatalf("AppendMessage = %v", b)
	}
	if m, err := DecodeMessage(b[1:]); err != nil || m != (wireA{N: -2, S: "hi"}) {
		t.Fatalf("DecodeMessage = %#v, %v", m, err)
	}
	// No codec is a programming error, named loudly — as is no message.
	mustPanic(t, "no wire codec for consensus.wireNone", func() { AppendMessage([]byte{9}, wireNone{}) })
	mustPanic(t, "no wire codec for <nil>", func() { AppendMessage(nil, nil) })
	for name, b := range map[string][]byte{
		"empty":       nil,
		"unknown tag": {250},
		"truncated":   {tagWireA, 4},
		"trailing":    {tagWireA, 4, 0, 0},
	} {
		if m, err := DecodeMessage(b); err == nil {
			t.Errorf("%s: decoded as %#v", name, m)
		}
	}
	if _, err := DecodeMessage([]byte{tagWireA, 4}); !errors.Is(err, errMalformed) {
		t.Errorf("truncated body: %v, want errMalformed", err)
	}
}

// TestWireReaderLatchesFailure: after the first bad field every read is a
// zero value and the reader stays failed, so decoders need no per-field
// checks and a hostile length never sizes an allocation.
func TestWireReaderLatchesFailure(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	for name, read := range map[string]func(r *WireReader){
		"string length past the end": func(r *WireReader) { _ = r.Str() },
		"bytes length past the end":  func(r *WireReader) { _ = r.Bytes() },
		"count past the end":         func(r *WireReader) { _ = r.Count(2) },
	} {
		r := WireReader{b: append(huge[:len(huge):len(huge)], 1, 2, 3)}
		read(&r)
		if !r.bad {
			t.Errorf("%s: not refused", name)
		}
		if r.Varint() != 0 || r.Uvarint() != 0 || r.Str() != "" || r.Bytes() != nil || r.Bool() || r.Count(1) != 0 || r.Message() != nil || r.Len() != 0 {
			t.Errorf("%s: reads after the failure returned data", name)
		}
	}
	r := WireReader{b: []byte{3, 'a', 'b', 'c', 1, tagWireA, 5, 0}}
	if s := r.Str(); s != "abc" {
		t.Errorf("Str = %q", s)
	}
	if !r.Bool() || r.Message() != (wireA{N: -3}) || r.bad || r.Len() != 0 {
		t.Errorf("reader state after a clean read: %+v", r)
	}
}

// wireWrap nests any message, itself included.
type wireWrap struct{ Inner Message }

func (wireWrap) Type() string { return "wire-wrap" }

// TestNestingIsBounded: a wrapper may carry a payload, but a hostile chain
// of wrappers must not recurse the decoder off its stack.
func TestNestingIsBounded(t *testing.T) {
	const tagWrap = 242
	RegisterCodec(tagWrap,
		func(b []byte, m wireWrap) []byte { return AppendMessage(b, m.Inner) },
		func(r *WireReader) wireWrap { return wireWrap{Inner: r.Message()} })
	b := AppendMessage(nil, wireWrap{Inner: wireA{N: 1}})
	mustPanic(t, "no wire codec for consensus.wireNone", func() { AppendMessage(nil, wireWrap{Inner: wireNone{}}) })
	if m, err := DecodeMessage(b); err != nil || m != (wireWrap{Inner: wireA{N: 1}}) {
		t.Fatalf("one level of nesting: %#v, %v", m, err)
	}
	deep := append(bytes.Repeat([]byte{tagWrap}, 1<<20), b...)
	if m, err := DecodeMessage(deep); err == nil {
		t.Fatalf("a million nested wrappers decoded as %T", m)
	}
	if m, err := DecodeMessage(append([]byte{tagWrap}, b...)); err == nil {
		t.Fatalf("two levels of nesting decoded as %#v", m)
	}
}
