package consensus

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"sync"
)

// The wire registry: the one place a message type is bound to its binary
// form, `tag | body`, the only thing the live TCP transport sends. A package
// whose messages cross a socket registers one codec per type from an init
// function in its wire.go. A type without a codec runs on the simulator and
// the memory transport, which never encode; handing it to the TCP transport
// is a programming error and panics (AppendMessage).
//
// Encoding runs after Send has returned, on a transport goroutine, which is
// sound only because messages are immutable values (see Message).

// codec is the registered binary form of one message type.
type codec struct {
	tag    byte
	typ    reflect.Type
	append func(b []byte, m Message) []byte
	decode func(r *WireReader) Message
}

var (
	codecByTag  [256]*codec
	codecByType = map[reflect.Type]*codec{}
)

// RegisterCodec binds message type M to tag on the wire. app appends m's
// body to b; a wrapper appends its payload with AppendMessage. dec reads the
// fields back in the same order; the registry then requires the body to be
// fully and cleanly consumed, so dec needs no error handling of its own.
// Bodies may come from a hostile peer: dec must not panic, and must size
// allocations only from WireReader.Count.
//
// Tags in use: 1–15 modpaxos, 16–47 rsm, 48–55 roundbased, 56–63
// bconsensus, 64–71 dynamics, 240–255 tests; 0 is never a message (it was
// the gob frame of an older wire format, which a peer must refuse).
// RegisterCodec panics on tag 0, on a duplicate tag and on a duplicate type
// — two types sharing a tag would decode as each other. Call it only during
// package initialization: lookups take no lock.
func RegisterCodec[M Message](tag byte, app func(b []byte, m M) []byte, dec func(r *WireReader) M) {
	typ := reflect.TypeFor[M]()
	switch {
	case tag == 0:
		panic(fmt.Sprintf("consensus: codec for %v uses the reserved tag 0", typ))
	case codecByTag[tag] != nil:
		panic(fmt.Sprintf("consensus: wire tag %d registered for both %v and %v", tag, codecByTag[tag].typ, typ))
	case codecByType[typ] != nil:
		panic(fmt.Sprintf("consensus: two codecs registered for %v", typ))
	}
	c := &codec{
		tag:    tag,
		typ:    typ,
		append: func(b []byte, m Message) []byte { return app(b, m.(M)) },
		decode: func(r *WireReader) Message { return dec(r) },
	}
	codecByTag[tag] = c
	codecByType[typ] = c
}

// AppendMessage appends `tag | body` for m. A type with no codec — m's own,
// or that of a payload m wraps — has no place on the wire: it panics, naming
// the type.
func AppendMessage(b []byte, m Message) []byte {
	c := codecByType[reflect.TypeOf(m)]
	if c == nil {
		panic(fmt.Sprintf("consensus: no wire codec for %T: register one (RegisterCodec) in its package's wire.go", m))
	}
	return c.append(append(b, c.tag), m)
}

// DecodeMessage parses `tag | body` as written by AppendMessage. It runs
// once per frame, so it calls the reader directly rather than through
// ReadWhole's func value.
func DecodeMessage(b []byte) (Message, error) {
	r := borrowReader(b)
	m := r.Message()
	if !r.release() {
		return nil, errMalformed
	}
	return m, nil
}

// ReadWhole runs read over b and returns what it read if b held exactly
// that: no malformed field and no byte left over. A body that is not a
// message — a snapshot image inside one — is read this way, without a tag
// of its own.
func ReadWhole[T any](b []byte, read func(*WireReader) T) (T, error) {
	r := borrowReader(b)
	v := read(r)
	if !r.release() {
		var zero T
		return zero, errMalformed
	}
	return v, nil
}

// borrowReader hands out a pooled reader over b. A reader handed to a
// registered decoder escapes; pooling them keeps the per-message path free
// of that allocation.
func borrowReader(b []byte) *WireReader {
	r := readerPool.Get().(*WireReader)
	*r = WireReader{b: b}
	return r
}

// release returns r to the pool and reports whether it read its whole input
// with no malformed field.
func (r *WireReader) release() bool {
	clean := !r.bad && len(r.b) == 0
	*r = WireReader{}
	readerPool.Put(r)
	return clean
}

var readerPool = sync.Pool{New: func() any { return new(WireReader) }}

// maxWireDepth bounds message-in-message nesting (a wrapper and its
// payload), so hostile nesting cannot recurse the decoder off its stack.
const maxWireDepth = 2

// AppendString appends s behind its uvarint length, as WireReader.Str and
// Bytes read it. Integers travel as encoding/binary varints.
func AppendString[S ~string | ~[]byte](b []byte, s S) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// AppendBool appends one byte, as WireReader.Bool reads it.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// errMalformed is what ReadWhole reports: an unknown tag, a truncated,
// overlong or out-of-range field, trailing bytes, or nesting too deep.
var errMalformed = errors.New("consensus: malformed wire message")

// WireReader hands a decoder the fields of one message body. The first
// malformed field latches the failure and every later read returns a zero
// value, so a decoder reads all its fields unconditionally and ReadWhole
// checks once.
type WireReader struct {
	b     []byte
	bad   bool
	depth int
}

// Varint reads one binary.AppendVarint field.
func (r *WireReader) Varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Uvarint reads one binary.AppendUvarint field.
func (r *WireReader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Count reads a collection length and rejects one that the remaining bytes
// cannot hold at minSize bytes per element, so the result is safe to size
// an allocation with.
func (r *WireReader) Count(minSize int) int {
	n := r.Uvarint()
	if n > uint64(len(r.b)/minSize) {
		r.fail()
		return 0
	}
	return int(n)
}

// Str reads one AppendString field, copying it out of the buffer.
func (r *WireReader) Str() string {
	return string(r.take(r.Count(1)))
}

// Bytes reads one AppendString field as a fresh byte slice; an empty field
// is nil.
func (r *WireReader) Bytes() []byte {
	p := r.take(r.Count(1))
	if len(p) == 0 {
		return nil
	}
	return append([]byte(nil), p...)
}

// Bool reads one AppendBool field; any byte but 0 or 1 is malformed.
func (r *WireReader) Bool() bool {
	p := r.take(1)
	if len(p) == 1 && p[0] > 1 {
		r.fail()
	}
	return len(p) == 1 && p[0] == 1
}

// Len reports how many bytes are unread.
func (r *WireReader) Len() int { return len(r.b) }

// Message reads a nested `tag | body` that runs to the end of the buffer —
// a wrapper's payload — through the registered decoder for its tag. An
// unknown tag, or nesting beyond a wrapper and its payload, is malformed.
func (r *WireReader) Message() Message {
	tag := r.take(1)
	if r.bad || codecByTag[tag[0]] == nil || r.depth == maxWireDepth {
		r.fail()
		return nil
	}
	r.depth++
	m := codecByTag[tag[0]].decode(r)
	r.depth--
	if r.bad {
		return nil
	}
	return m
}

func (r *WireReader) take(n int) []byte {
	if r.bad || n > len(r.b) {
		r.fail()
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *WireReader) fail() {
	r.bad = true
	r.b = nil
}
