package live

import (
	"io"

	"repro/internal/core/consensus"
)

// Hooks for the external test package, which — unlike this one — can import
// rsm and so exercise the frame codec on the real serving-path messages.

// FrameEncoder builds one link's frames.
type FrameEncoder = frameEncoder

// Encode returns m's frame, valid until the next call.
func (e *frameEncoder) Encode(from, to consensus.ProcessID, m consensus.Message) ([]byte, error) {
	return e.encode(from, to, m)
}

// FrameDecoder reads one connection's frames.
type FrameDecoder = frameDecoder

// NewFrameDecoder decodes the frames in r.
func NewFrameDecoder(r io.Reader) *FrameDecoder { return newFrameDecoder(r) }

// Next reads and decodes one frame.
func (d *frameDecoder) Next() (from, to consensus.ProcessID, m consensus.Message, err error) {
	return d.next()
}

// MaxFrame is the cap on a frame's declared length.
const MaxFrame = maxFrame

// ErrBadFrame is what the decoder reports for a frame it cannot parse.
var ErrBadFrame = errBadFrame

// Deliver hands m to the node the way its transport does.
func (n *Node) Deliver(from consensus.ProcessID, m consensus.Message) { n.enqueueMessage(from, m) }

// TimerCounts returns how many timers the node has armed and how many
// entries its heap holds. Loop-owned state: call it from a handler.
func (n *Node) TimerCounts() (armed, heap int) { return len(n.timers.armed), len(n.timers.heap) }
