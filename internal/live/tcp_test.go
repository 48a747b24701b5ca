package live

import (
	"encoding/binary"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/core/modpaxos"
)

// These tests drive the TCP transport directly — no cluster, no protocol
// timers — so they are fast enough to run under -short and -race, which is
// where the writer/reader goroutines most need watching.

// seqMsg is a test-defined message with a codec in the registry's test
// range, as an application's own message type would have.
type seqMsg struct {
	Seq int
	Pad string
}

func (seqMsg) Type() string { return "test-seq" }

// uncodedMsg has no wire codec: only self-sends and the crash test below
// ever hand it to the transport.
type uncodedMsg struct{ X int }

func (uncodedMsg) Type() string { return "test-uncoded" }

func init() {
	consensus.RegisterCodec(250,
		func(b []byte, m seqMsg) []byte {
			return consensus.AppendString(binary.AppendVarint(b, int64(m.Seq)), m.Pad)
		},
		func(r *consensus.WireReader) seqMsg { return seqMsg{Seq: int(r.Varint()), Pad: r.Str()} })
}

// seqOf reads the sequence number out of either kind of test message.
func seqOf(t *testing.T, m consensus.Message) int {
	switch m := m.(type) {
	case seqMsg:
		return m.Seq
	case modpaxos.P2a:
		return int(m.Bal)
	}
	t.Errorf("unexpected message %#v", m)
	return -1
}

func newTCP(t *testing.T, n int) *TCPTransport {
	t.Helper()
	ids := make([]consensus.ProcessID, n)
	for i := range ids {
		ids[i] = consensus.ProcessID(i)
	}
	tr, err := NewTCPTransport(ids)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	return tr
}

// waitFor polls cond; transports deliver on their own goroutines, so there
// is no event to block on from outside.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// orderChecker is a handler asserting that each sender's messages arrive
// with consecutive sequence numbers.
type orderChecker struct {
	t    *testing.T
	mu   sync.Mutex
	next map[consensus.ProcessID]int
	got  atomic.Int64
}

func newOrderChecker(t *testing.T) *orderChecker {
	return &orderChecker{t: t, next: make(map[consensus.ProcessID]int)}
}

func (o *orderChecker) handle(from consensus.ProcessID, m consensus.Message) {
	seq := seqOf(o.t, m)
	o.mu.Lock()
	if want := o.next[from]; seq != want {
		o.t.Errorf("from %d: got seq %d, want %d", from, seq, want)
	}
	o.next[from] = seq + 1
	o.mu.Unlock()
	o.got.Add(1)
}

func TestTCPPerLinkFIFO(t *testing.T) {
	const senders, each = 4, 10000
	tr := newTCP(t, senders+1)
	check := newOrderChecker(t)
	tr.Register(senders, check.handle)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(from consensus.ProcessID) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tr.Send(from, senders, modpaxos.P2a{Bal: consensus.Ballot(i), Val: "v"})
			}
		}(consensus.ProcessID(s))
	}
	wg.Wait()
	waitFor(t, "all messages", func() bool { return check.got.Load() == senders*each })
}

// TestTCPInterleavedFramesKeepOrder alternates two message types on one
// link: they share the queue and the connection, so they arrive in send
// order.
func TestTCPInterleavedFramesKeepOrder(t *testing.T) {
	const n = 2000
	tr := newTCP(t, 2)
	check := newOrderChecker(t)
	tr.Register(1, check.handle)
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			tr.Send(0, 1, seqMsg{Seq: i})
		} else {
			tr.Send(0, 1, modpaxos.P2a{Bal: consensus.Ballot(i)})
		}
	}
	waitFor(t, "all messages", func() bool { return check.got.Load() == n })
}

// TestTCPBackpressureNotLoss stalls the receiving handler until the link's
// queue and both socket buffers are full: the sender must block there — and
// once the handler runs again every message must arrive, in order.
func TestTCPBackpressureNotLoss(t *testing.T) {
	// 32 MiB in all: far more than loopback socket buffers plus the queue.
	const n, size = 8192, 4096
	tr := newTCP(t, 2)
	check := newOrderChecker(t)
	release := make(chan struct{})
	tr.Register(1, func(from consensus.ProcessID, m consensus.Message) {
		<-release
		check.handle(from, m)
	})
	pad := consensus.Value(strings.Repeat("p", size))
	var sent atomic.Int64
	go func() {
		for i := 0; i < n; i++ {
			tr.Send(0, 1, modpaxos.P2a{Bal: consensus.Ballot(i), Val: pad})
			sent.Add(1)
		}
	}()
	// The sender stops making progress short of n: it is blocked, not
	// dropping (a dropping Send would run through all n at once).
	var stalledAt int64 = -1
	waitFor(t, "the sender to stall", func() bool {
		now := sent.Load()
		time.Sleep(50 * time.Millisecond)
		stalledAt = sent.Load()
		return stalledAt == now && now > 0
	})
	if stalledAt >= n {
		t.Fatalf("sender finished all %d sends against a stalled receiver: nothing pushed back", n)
	}
	close(release)
	waitFor(t, "every message after the stall", func() bool { return check.got.Load() == n })
}

func TestTCPCloseDuringTraffic(t *testing.T) {
	before := runtime.NumGoroutine()
	tr := newTCP(t, 3)
	var got atomic.Int64
	for id := consensus.ProcessID(0); id < 3; id++ {
		tr.Register(id, func(consensus.ProcessID, consensus.Message) { got.Add(1) })
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for s := 0; s < 6; s++ {
		wg.Add(1)
		go func(from, to consensus.ProcessID) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tr.Send(from, to, seqMsg{Seq: i})
				tr.Send(from, to, modpaxos.P2a{Bal: consensus.Ballot(i)})
			}
		}(consensus.ProcessID(s%3), consensus.ProcessID((s+1+s/3)%3))
	}
	waitFor(t, "traffic to flow", func() bool { return got.Load() > 1000 })
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	delivered := got.Load()
	// Senders keep calling into the closed transport for a moment: silent.
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
	if now := got.Load(); now != delivered {
		t.Errorf("%d deliveries after Close returned", now-delivered)
	}
	if err := tr.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	// Close joined every writer, reader and accept loop.
	waitFor(t, "transport goroutines to exit", func() bool { return runtime.NumGoroutine() <= before })
}

// TestTCPSendToDeadPeerDoesNotStall: dialing belongs to the link's writer,
// so a Send towards a closed listener returns at once and the sender's
// other links are unaffected.
func TestTCPSendToDeadPeerDoesNotStall(t *testing.T) {
	tr := newTCP(t, 3)
	var got atomic.Int64
	tr.Register(1, func(consensus.ProcessID, consensus.Message) { got.Add(1) })
	_ = tr.listeners[2].Close()
	const n = 2000
	began := time.Now()
	for i := 0; i < n; i++ {
		tr.Send(0, 2, modpaxos.P1a{Bal: consensus.Ballot(i)})
		tr.Send(0, 1, modpaxos.P1a{Bal: consensus.Ballot(i)})
	}
	if took := time.Since(began); took > 5*time.Second {
		t.Errorf("%d sends to a dead peer took %v", n, took)
	}
	waitFor(t, "traffic to the live peer", func() bool { return got.Load() == n })
}

// TestTCPSelfSendIsLocal: with every listener closed a self-send still
// arrives, and it has arrived by the time Send returns.
func TestTCPSelfSendIsLocal(t *testing.T) {
	tr := newTCP(t, 2)
	for _, ln := range tr.listeners {
		_ = ln.Close()
	}
	var got []consensus.Message
	tr.Register(1, func(from consensus.ProcessID, m consensus.Message) {
		if from != 1 {
			t.Errorf("self-send delivered as from %d", from)
		}
		got = append(got, m)
	})
	tr.Send(1, 1, modpaxos.Decided{Val: "me"})
	tr.Send(1, 1, uncodedMsg{X: 1}) // never encoded, so it needs no codec
	if len(got) != 2 || got[0] != (modpaxos.Decided{Val: "me"}) || got[1] != (uncodedMsg{X: 1}) {
		t.Fatalf("self-sends delivered %#v", got)
	}
	tr.mu.RLock()
	links := len(tr.links)
	tr.mu.RUnlock()
	if links != 0 {
		t.Errorf("self-send opened %d links", links)
	}
}

// TestTCPRedialAfterPeerDropsConnection points process 1's address at a
// receiver the test owns, which reads one frame and hangs up. The link's
// writer must notice, the traffic queued behind it is an omission, and a
// later Send must dial afresh.
func TestTCPRedialAfterPeerDropsConnection(t *testing.T) {
	tr := newTCP(t, 2)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	tr.addrs[1] = ln.Addr().String() // before any Send: no link has read it yet

	firstGone := make(chan struct{})
	redialed := make(chan consensus.Message, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		_, _, _, err = newFrameDecoder(conn).next()
		_ = conn.Close()
		if err != nil {
			t.Errorf("first connection: %v", err)
		}
		close(firstGone)
		if conn, err = ln.Accept(); err != nil {
			return
		}
		defer func() { _ = conn.Close() }()
		_, _, m, err := newFrameDecoder(conn).next()
		if err != nil {
			t.Errorf("second connection: %v", err)
		}
		redialed <- m
	}()

	tr.Send(0, 1, seqMsg{Seq: 0})
	<-firstGone
	deadline := time.After(20 * time.Second)
	for i := 1; ; i++ {
		// Each Send may land on the dying link and be dropped; once that
		// writer has failed, the next one redials.
		tr.Send(0, 1, seqMsg{Seq: i})
		select {
		case m := <-redialed:
			if _, ok := m.(seqMsg); !ok {
				t.Fatalf("redialed link delivered %#v", m)
			}
			return
		case <-deadline:
			t.Fatal("no redial after the peer dropped the connection")
		case <-time.After(time.Millisecond):
		}
	}
}

// TestTCPHostileConnectionIsDropped: garbage on one inbound connection
// closes that connection and nothing else.
func TestTCPHostileConnectionIsDropped(t *testing.T) {
	tr := newTCP(t, 2)
	var got atomic.Int64
	tr.Register(1, func(consensus.ProcessID, consensus.Message) { got.Add(1) })
	for name, junk := range map[string][]byte{
		"oversize length": {0xff, 0xff, 0xff, 0xff},
		"unknown tag":     {0, 0, 0, 3, 0, 2, 250},
		"wrong recipient": {0, 0, 0, 4, 0, 0, 1, 2},          // a well-formed P1a, addressed to process 0
		"tag 0":           {0, 0, 0, 5, 0, 2, 0, 0xde, 0xad}, // the gob frame of the old format
	} {
		conn, err := net.Dial("tcp", tr.Addr(1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(junk); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(20 * time.Second))
		if n, err := conn.Read(make([]byte, 1)); err == nil || n != 0 {
			t.Errorf("%s: connection still open (read %d, %v)", name, n, err)
		} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Errorf("%s: reader never hung up", name)
		}
		_ = conn.Close()
	}
	if got.Load() != 0 {
		t.Errorf("hostile frames delivered %d messages", got.Load())
	}
	tr.Send(0, 1, modpaxos.P1a{Bal: 1})
	waitFor(t, "honest traffic", func() bool { return got.Load() == 1 })
}

// TestTCPSendOfUncodedTypePanics: a message type with no wire codec is a
// programming error, and the transport says so instead of dropping it. The
// panic is raised on the link's writer goroutine, so it takes the process
// down; the test watches that happen to a copy of itself.
func TestTCPSendOfUncodedTypePanics(t *testing.T) {
	const crashEnv = "LIVE_TEST_SEND_UNCODED"
	if os.Getenv(crashEnv) != "" {
		tr := newTCP(t, 2)
		tr.Register(1, func(consensus.ProcessID, consensus.Message) {})
		tr.Send(0, 1, uncodedMsg{X: 1})
		time.Sleep(2 * time.Second) // the writer's panic ends the process first
		os.Exit(0)                  // a quiet pass, which the parent reports
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestTCPSendOfUncodedTypePanics$")
	cmd.Env = append(os.Environ(), crashEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("a Send of uncodedMsg over TCP went through quietly:\n%s", out)
	}
	if want := "no wire codec for live.uncodedMsg"; !strings.Contains(string(out), want) {
		t.Errorf("the process died without saying %q:\n%s", want, out)
	}
}
