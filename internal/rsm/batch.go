package rsm

import (
	"encoding/binary"
	"strings"

	"repro/internal/core/consensus"
)

// Command is one client operation inside a batched slot value. Client and
// Seq form the session identity used for exactly-once deduplication at
// apply time: Seq is 1-based and monotonic per client, and Seq == 0 marks a
// sessionless command (legacy injection paths) that is applied
// unconditionally.
type Command struct {
	Client int64
	Seq    uint64
	Op     consensus.Value
}

// batchPrefix versions the batch encoding. A decided value that is not this
// prefix followed by a well-formed body is treated as a single sessionless
// command, so raw values injected by tests (or decided by recovery ballots
// of older logs) still apply.
const batchPrefix = "b2|"

// minCommand is the smallest encoded command: three one-byte varints and an
// empty op.
const minCommand = 3

// EncodeBatch packs commands into one consensus value: the prefix, the
// command count, then per command `client | seq | len(op) | op` with the
// integers as encoding/binary varints (the layout consensus.AppendString
// and WireReader use) — fixed fields in a fixed order, nothing
// self-describing. The value is built in one exactly sized allocation.
func EncodeBatch(cmds []Command) consensus.Value {
	var buf [3 * binary.MaxVarintLen64]byte
	size := len(batchPrefix) + len(binary.AppendUvarint(buf[:0], uint64(len(cmds))))
	for _, c := range cmds {
		size += len(appendCommandHead(buf[:0], c)) + len(c.Op)
	}
	var b strings.Builder
	b.Grow(size)
	b.WriteString(batchPrefix)
	b.Write(binary.AppendUvarint(buf[:0], uint64(len(cmds))))
	for _, c := range cmds {
		b.Write(appendCommandHead(buf[:0], c))
		b.WriteString(string(c.Op))
	}
	return consensus.Value(b.String())
}

func appendCommandHead(b []byte, c Command) []byte {
	b = binary.AppendUvarint(binary.AppendVarint(b, c.Client), c.Seq)
	return binary.AppendUvarint(b, uint64(len(c.Op)))
}

// DecodeBatch unpacks a slot value into its commands, whose ops share the
// value's bytes. Non-batch values (including anything malformed: a count or
// length the remaining bytes cannot hold, a truncated field, trailing
// bytes) decode as a single sessionless command, so every decided non-NoOp
// value applies exactly once somehow.
func DecodeBatch(v consensus.Value) []Command { return appendBatch(nil, v) }

// appendBatch appends v's commands, as DecodeBatch decodes them, to dst:
// a replica decodes each slot it applies into one buffer. Growing a short
// dst takes one exactly sized allocation.
func appendBatch(dst []Command, v consensus.Value) []Command {
	if out, ok := decodeBatch(dst, v); ok {
		return out
	}
	return append(dst, Command{Op: v})
}

func decodeBatch(dst []Command, v consensus.Value) ([]Command, bool) {
	if !strings.HasPrefix(string(v), batchPrefix) {
		return nil, false
	}
	b := []byte(v) // only read, so the compiler does not copy
	off := len(batchPrefix)
	count, n := binary.Uvarint(b[off:])
	off += n
	// The declared count sizes the result, so it must fit what is left.
	if n <= 0 || count > uint64((len(b)-off)/minCommand) {
		return nil, false
	}
	out := dst
	if uint64(cap(dst)-len(dst)) < count {
		out = append(make([]Command, 0, len(dst)+int(count)), dst...)
	}
	for range count {
		client, n1 := binary.Varint(b[off:])
		if n1 <= 0 {
			return nil, false
		}
		seq, n2 := binary.Uvarint(b[off+n1:])
		if n2 <= 0 {
			return nil, false
		}
		opLen, n3 := binary.Uvarint(b[off+n1+n2:])
		off += n1 + n2 + n3
		if n3 <= 0 || opLen > uint64(len(b)-off) {
			return nil, false
		}
		out = append(out, Command{Client: client, Seq: seq, Op: v[off : off+int(opLen)]})
		off += int(opLen)
	}
	return out, off == len(b)
}
