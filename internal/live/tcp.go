package live

// The TCP transport. Each process id gets a loopback listener; each ordered
// pair (from, to) that ever sends gets a link: a bounded queue and one writer
// goroutine that owns the connection. Send is an enqueue — dialing, encoding
// and write(2) all happen on the writer, off the sending node's event loop.
//
// Frame layout (all a peer ever reads from a connection):
//
//	len uint32 big-endian | from varint | to varint | tag byte | body
//
// len counts everything after itself and is capped at maxFrame. `tag | body`
// is the message's codec from the consensus wire registry, the one wire
// format: every protocol the live runtime accepts registers its messages
// there (a wire.go per package). Sending a type with no codec is a
// programming error, not an omission: the link's writer panics, naming the
// type. The simulator and the memory transport never encode, so tests are
// free to send ad-hoc types there.
//
// Flush rule: the writer flushes its buffer exactly when its queue is empty
// (and, like any bufio.Writer, when the buffer fills). A burst of sends to
// one peer becomes one write(2); a lone send is not delayed by any timer.
//
// Backpressure: a full queue blocks Send until the writer catches up — the
// same contract a full socket buffer used to impose directly. That cannot
// deadlock, because readers never block: they hand each message to the
// destination's handler, and a Node's handler is a non-blocking inbox push.
//
// Omission: a dial, encode or write error drops whatever that link had
// queued and ends its writer; the next Send to that peer starts a fresh link
// and redials. A reader that sees an oversize, truncated, unknown or
// malformed frame closes its connection, which the writer at the other end
// discovers as a write error.
//
// A send to oneself never touches a socket: it calls the registered handler
// directly.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core/consensus"
)

const (
	// maxFrame caps a frame's declared length. The largest legitimate frame
	// is an rsm snapshot (a whole applier image plus the session table).
	maxFrame = 64 << 20
	// linkQueueDepth is how many messages a link holds before Send blocks:
	// room for the bursts a busy leader's handler emits between two writer
	// wake-ups, small enough that a stalled peer exerts backpressure within
	// milliseconds.
	linkQueueDepth = 1024
	// ioBufSize sizes each connection's write and read buffers. Frames on
	// the serving path are tens to hundreds of bytes, so one buffer holds a
	// burst of dozens; a one-way stream measures the same at 16 and 64 KiB,
	// and a cluster of n processes holds up to 2·n² of these.
	ioBufSize = 16 << 10
	// maxKeptBuf bounds the scratch a link or reader keeps between frames,
	// so one snapshot-sized frame does not pin its buffer for good.
	maxKeptBuf = 1 << 20
	// dialTimeout bounds how long a link's queue can sit behind a connect to
	// an unresponsive address (a closed loopback port refuses at once).
	dialTimeout = 2 * time.Second
	// maxPendingPerProcess bounds the pre-registration buffer; beyond it the
	// omission model applies.
	maxPendingPerProcess = 1024
)

var (
	errFrameTooBig = errors.New("live: frame exceeds maxFrame")
	errBadFrame    = errors.New("live: malformed frame")
)

// TCPTransport connects processes over loopback (or real) TCP; see the top
// of this file for the frame format and the flush, backpressure and
// omission rules. Messages are encoded after Send returns, on the link's
// writer goroutine: the rule that a consensus.Message is an immutable value
// is what makes that safe.
type TCPTransport struct {
	addrs     map[consensus.ProcessID]string // fixed at construction
	listeners []net.Listener                 // fixed at construction

	// ctx is cancelled by Close, which aborts dials, closes every connection
	// (context.AfterFunc), and wakes idle writers and blocked senders.
	ctx    context.Context
	cancel context.CancelFunc

	// mu guards the two maps. Per message it is only read-locked, for a
	// lookup; it is never held across encoding, I/O or a handler call.
	mu        sync.RWMutex
	links     map[connKey]*link
	endpoints map[consensus.ProcessID]*endpoint
	wg        sync.WaitGroup
}

type connKey struct {
	from, to consensus.ProcessID
}

// link is one direction of one pair: senders enqueue, the writer goroutine
// dials, encodes and writes.
type link struct {
	key   connKey
	queue chan consensus.Message // linkQueueDepth deep; FIFO, so per-link order is send order
	// dead is closed when the writer has exited, releasing senders blocked
	// on a full queue; what they were sending is dropped.
	dead chan struct{}
}

type handlerFunc = func(consensus.ProcessID, consensus.Message)

// endpoint is the receiving side of one process id.
type endpoint struct {
	handler atomic.Pointer[handlerFunc]
	// mu guards pending and the nil→handler transition. pending buffers
	// messages that arrive before the handler registers (bounded; overflow
	// is an omission). Register flushes it, so a late-wired process still
	// sees early traffic.
	mu      sync.Mutex
	pending []envelope
}

type envelope struct {
	from consensus.ProcessID
	msg  consensus.Message
}

var _ Transport = (*TCPTransport)(nil)

// NewTCPTransport starts one loopback listener per process id in ids.
func NewTCPTransport(ids []consensus.ProcessID) (*TCPTransport, error) {
	ctx, cancel := context.WithCancel(context.Background())
	t := &TCPTransport{
		addrs:     make(map[consensus.ProcessID]string),
		ctx:       ctx,
		cancel:    cancel,
		links:     make(map[connKey]*link),
		endpoints: make(map[consensus.ProcessID]*endpoint),
	}
	for _, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			_ = t.Close()
			return nil, fmt.Errorf("live: listen for process %d: %w", id, err)
		}
		t.listeners = append(t.listeners, ln)
		t.addrs[id] = ln.Addr().String()
		t.wg.Add(1)
		go t.acceptLoop(id, ln)
	}
	return t, nil
}

// Addr returns the listen address of a process (useful for logging and for
// wiring real multi-binary deployments).
func (t *TCPTransport) Addr(id consensus.ProcessID) string { return t.addrs[id] }

// Register implements Transport. Messages that arrived before the handler
// was installed are delivered immediately, in arrival order.
func (t *TCPTransport) Register(id consensus.ProcessID, h func(consensus.ProcessID, consensus.Message)) {
	ep := t.endpoint(id)
	ep.mu.Lock()
	ep.handler.Store(&h)
	buffered := ep.pending
	ep.pending = nil
	ep.mu.Unlock()
	// Flush outside the lock: handlers may re-enter the transport.
	for _, env := range buffered {
		h(env.from, env.msg)
	}
}

// endpoint returns id's receiving side, creating it on first use.
func (t *TCPTransport) endpoint(id consensus.ProcessID) *endpoint {
	t.mu.RLock()
	ep := t.endpoints[id]
	t.mu.RUnlock()
	if ep != nil {
		return ep
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if ep = t.endpoints[id]; ep == nil {
		ep = &endpoint{}
		t.endpoints[id] = ep
	}
	return ep
}

// deliver hands m to ep's registered handler, or parks it until one
// registers. It is the single entry for readers and for self-sends.
func (t *TCPTransport) deliver(ep *endpoint, from consensus.ProcessID, m consensus.Message) {
	select {
	case <-t.ctx.Done():
		return
	default:
	}
	h := ep.handler.Load()
	if h == nil {
		ep.mu.Lock()
		if h = ep.handler.Load(); h == nil && len(ep.pending) < maxPendingPerProcess {
			ep.pending = append(ep.pending, envelope{from, m})
		}
		ep.mu.Unlock()
		if h == nil {
			return
		}
	}
	(*h)(from, m)
}

// Send implements Transport: a local call for a self-send, otherwise an
// enqueue on the (from, to) link that blocks only while that link's queue
// is full. It performs no network call and no encoding. Failures are silent
// (omission model), as is a Send after Close.
func (t *TCPTransport) Send(from, to consensus.ProcessID, m consensus.Message) {
	if from == to {
		t.deliver(t.endpoint(to), from, m)
		return
	}
	l := t.link(from, to)
	if l == nil {
		return
	}
	select {
	case l.queue <- m: // the common case, kept off the multi-way select below
		return
	default:
	}
	select {
	case l.queue <- m:
	case <-l.dead:
	case <-t.ctx.Done():
	}
}

// link returns the live link for the pair, starting one (and its writer) if
// there is none; nil once the transport is closed.
func (t *TCPTransport) link(from, to consensus.ProcessID) *link {
	key := connKey{from, to}
	t.mu.RLock()
	l := t.links[key]
	t.mu.RUnlock()
	if l != nil {
		return l
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ctx.Err() != nil {
		return nil
	}
	if l = t.links[key]; l != nil {
		return l // lost the race; use the established link
	}
	l = &link{
		key:   key,
		queue: make(chan consensus.Message, linkQueueDepth),
		dead:  make(chan struct{}),
	}
	t.links[key] = l
	t.wg.Add(1)
	go t.writeLoop(l)
	return l
}

// writeLoop is a link's writer goroutine. However it ends, the link is
// unlinked first — so the next Send builds a fresh one — and only then
// declared dead.
func (t *TCPTransport) writeLoop(l *link) {
	defer t.wg.Done()
	defer func() {
		t.mu.Lock()
		if t.links[l.key] == l {
			delete(t.links, l.key)
		}
		t.mu.Unlock()
		close(l.dead)
	}()

	d := net.Dialer{Timeout: dialTimeout}
	conn, err := d.DialContext(t.ctx, "tcp", t.addrs[l.key.to])
	if err != nil {
		return
	}
	defer func() { _ = conn.Close() }()
	// Close must be able to stop a writer stuck in Write behind a slow peer.
	stop := context.AfterFunc(t.ctx, func() { _ = conn.Close() })
	defer stop()

	w := bufio.NewWriterSize(conn, ioBufSize)
	var enc frameEncoder
	for {
		var m consensus.Message
		select {
		case m = <-l.queue:
		default:
			// Queue empty: this is the one place buffered frames are
			// flushed (a Flush with nothing buffered is free).
			if w.Flush() != nil {
				return
			}
			select {
			case m = <-l.queue:
			case <-t.ctx.Done():
				return
			}
		}
		frame, err := enc.encode(l.key.from, l.key.to, m)
		if err != nil {
			return
		}
		if _, err := w.Write(frame); err != nil {
			return
		}
	}
}

func (t *TCPTransport) acceptLoop(id consensus.ProcessID, ln net.Listener) {
	defer t.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.wg.Add(1)
		go t.readLoop(id, conn)
	}
}

// readLoop decodes frames off one inbound connection until it fails or the
// transport closes; any error is an omission (see the top of the file).
func (t *TCPTransport) readLoop(id consensus.ProcessID, conn net.Conn) {
	defer t.wg.Done()
	defer func() { _ = conn.Close() }()
	stop := context.AfterFunc(t.ctx, func() { _ = conn.Close() })
	defer stop()
	ep, dec := t.endpoint(id), newFrameDecoder(conn)
	for {
		from, to, m, err := dec.next()
		if err != nil || to != id {
			return
		}
		t.deliver(ep, from, m)
	}
}

// Close implements Transport: it stops every writer and reader and returns
// once they have exited. Messages still queued are dropped.
func (t *TCPTransport) Close() error {
	// Under mu, so that no link() can slip a writer in after the Wait below
	// has begun.
	t.mu.Lock()
	t.cancel()
	t.mu.Unlock()
	for _, ln := range t.listeners {
		_ = ln.Close()
	}
	t.wg.Wait()
	return nil
}

// frameEncoder builds one link's outgoing frames.
type frameEncoder struct {
	buf []byte // the previous frame's storage, reused
}

// encode returns m's frame, valid until the next call. It panics on a
// message with no wire codec (consensus.AppendMessage) and stays usable.
func (e *frameEncoder) encode(from, to consensus.ProcessID, m consensus.Message) ([]byte, error) {
	b := append(e.buf[:0], 0, 0, 0, 0) // len, patched below
	b = binary.AppendVarint(b, int64(from))
	b = binary.AppendVarint(b, int64(to))
	b = consensus.AppendMessage(b, m)
	if len(b)-4 > maxFrame {
		return nil, errFrameTooBig
	}
	binary.BigEndian.PutUint32(b, uint32(len(b)-4))
	if cap(b) <= maxKeptBuf {
		e.buf = b
	}
	return b, nil
}

// frameDecoder reads one connection's incoming frames. Its input is
// untrusted: it allocates only as bytes actually arrive, never from a
// declared length, and reports every irregularity as an error.
type frameDecoder struct {
	r     *bufio.Reader
	frame io.LimitedReader // r, limited to the current frame
	buf   bytes.Buffer     // the current frame
}

func newFrameDecoder(conn io.Reader) *frameDecoder {
	d := &frameDecoder{r: bufio.NewReaderSize(conn, ioBufSize)}
	d.frame.R = d.r
	return d
}

// next reads and decodes one frame.
func (d *frameDecoder) next() (from, to consensus.ProcessID, m consensus.Message, err error) {
	hdr, err := d.r.Peek(4)
	if err != nil {
		return 0, 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > maxFrame {
		return 0, 0, nil, errFrameTooBig
	}
	_, _ = d.r.Discard(4) // cannot fail after the Peek
	if d.buf.Cap() > maxKeptBuf {
		d.buf = bytes.Buffer{}
	}
	d.buf.Reset()
	d.frame.N = int64(n)
	if _, err := d.buf.ReadFrom(&d.frame); err != nil {
		return 0, 0, nil, err
	}
	if d.buf.Len() != int(n) {
		return 0, 0, nil, io.ErrUnexpectedEOF
	}
	return d.decode(d.buf.Bytes())
}

// decode parses a frame's bytes after the length prefix.
func (d *frameDecoder) decode(b []byte) (from, to consensus.ProcessID, m consensus.Message, err error) {
	f, k := binary.Varint(b)
	if k <= 0 {
		return 0, 0, nil, errBadFrame
	}
	b = b[k:]
	t, k := binary.Varint(b)
	if k <= 0 {
		return 0, 0, nil, errBadFrame
	}
	if m, err = consensus.DecodeMessage(b[k:]); err != nil {
		return 0, 0, nil, errBadFrame
	}
	return consensus.ProcessID(f), consensus.ProcessID(t), m, nil
}
