package live

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/trace"
)

// scripted is a process whose handlers are the test's closures. They run on
// the node's loop goroutine, so they may call the Environment and read the
// node's loop-owned state.
type scripted struct {
	n       *Node
	init    func(n *Node)
	message func(n *Node, from consensus.ProcessID, m consensus.Message)
	timer   func(n *Node, id consensus.TimerID)
}

func (s *scripted) Init(env consensus.Environment) {
	s.n = env.(*Node)
	if s.init != nil {
		s.init(s.n)
	}
}

func (s *scripted) HandleMessage(from consensus.ProcessID, m consensus.Message) {
	if call, ok := m.(onLoop); ok {
		call(s.n)
		return
	}
	if s.message != nil {
		s.message(s.n, from, m)
	}
}

func (s *scripted) HandleTimer(id consensus.TimerID) {
	if s.timer != nil {
		s.timer(s.n, id)
	}
}

// onLoop is a message every scripted process runs as a function, which is
// how a test reads loop-owned state without racing the loop.
type onLoop func(n *Node)

func (onLoop) Type() string { return "on-loop" }

// note is the tests' ordinary message.
type note int

func (note) Type() string { return "note" }

// scriptedNode starts a one-node cluster; incarnation(k) builds the process
// of the k-th boot (0 first).
func scriptedNode(tb testing.TB, incarnation func(k int) *scripted) (*Cluster, *Node) {
	tb.Helper()
	boots := 0
	c, err := NewCluster(Config{N: 1, Delta: delta},
		func(consensus.ProcessID, int, consensus.Value) consensus.Process {
			boots++
			return incarnation(boots - 1)
		}, distinctProposals(1))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		if err := c.Stop(); err != nil {
			tb.Errorf("Stop: %v", err)
		}
	})
	c.Start()
	return c, c.Node(0)
}

// timerCounts reads the node's timer table on its loop.
func timerCounts(n *Node) (armed, heap int) {
	done := make(chan struct{})
	n.enqueueMessage(0, onLoop(func(n *Node) {
		armed, heap = n.TimerCounts()
		close(done)
	}))
	<-done
	return armed, heap
}

// eventually polls cond until it holds or five seconds pass.
func eventually(tb testing.TB, what string, cond func() bool) {
	tb.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			tb.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestNodeTimerTableIsBounded: a timer that fired or was cancelled leaves
// the node's table. The rsm arms a fresh ID per slot, so before the loop
// owned the timers a replica kept one entry per slot it had ever served.
func TestNodeTimerTableIsBounded(t *testing.T) {
	const messages = 10000
	var handled, fired atomic.Int64
	_, n := scriptedNode(t, func(int) *scripted {
		return &scripted{
			message: func(n *Node, _ consensus.ProcessID, m consensus.Message) {
				id := consensus.TimerID(m.(note))
				n.SetTimer(id, 100*time.Microsecond)
				if id%2 == 1 {
					n.CancelTimer(id)
				}
				handled.Add(1)
			},
			timer: func(*Node, consensus.TimerID) { fired.Add(1) },
		}
	})
	for i := 0; i < messages; i++ {
		if i%1000 == 0 { // stay far below the inbox bound
			eventually(t, "the loop to catch up", func() bool { return handled.Load() == int64(i) })
		}
		n.enqueueMessage(0, note(i))
	}
	eventually(t, "every uncancelled timer to fire", func() bool { return fired.Load() == messages/2 })
	armed, heap := timerCounts(n)
	if armed != 0 || heap > 2*armed {
		t.Fatalf("after %d arm/cancel/fire cycles and a quiet period: %d armed timers, %d heap entries; want 0 and at most 2·armed",
			messages, armed, heap)
	}
	if got := fired.Load(); got != messages/2 {
		t.Fatalf("%d timers fired, want %d (a cancelled one fired)", got, messages/2)
	}
}

// TestNodeTimerSemantics pins what the loop promises about timers.
func TestNodeTimerSemantics(t *testing.T) {
	// fires collects HandleTimer calls in order.
	type fires struct {
		mu  sync.Mutex
		ids []consensus.TimerID
		at  []time.Duration
	}
	record := func(f *fires) func(*Node, consensus.TimerID) {
		return func(n *Node, id consensus.TimerID) {
			f.mu.Lock()
			f.ids = append(f.ids, id)
			f.at = append(f.at, n.Now())
			f.mu.Unlock()
		}
	}
	count := func(f *fires) int {
		f.mu.Lock()
		defer f.mu.Unlock()
		return len(f.ids)
	}

	t.Run("re-arm replaces, cancel disarms, order is by deadline", func(t *testing.T) {
		var f fires
		var armedAt time.Duration
		_, n := scriptedNode(t, func(int) *scripted {
			return &scripted{
				init: func(n *Node) {
					n.CancelTimer(99) // unknown: a no-op
					armedAt = n.Now()
					n.SetTimer(3, 30*time.Millisecond)
					n.SetTimer(1, 1*time.Millisecond)
					n.SetTimer(1, 10*time.Millisecond) // replaces the 1ms arming
					n.SetTimer(2, 20*time.Millisecond)
					n.SetTimer(4, 5*time.Millisecond)
					n.CancelTimer(4)
				},
				timer: record(&f),
			}
		})
		eventually(t, "three timers", func() bool { return count(&f) == 3 })
		time.Sleep(5 * time.Millisecond) // room for a wrong fourth
		f.mu.Lock()
		defer f.mu.Unlock()
		if fmt.Sprint(f.ids) != "[1 2 3]" {
			t.Fatalf("fired %v, want [1 2 3]: once each, by deadline, the cancelled one never", f.ids)
		}
		if early := f.at[0] - armedAt; early < 10*time.Millisecond {
			t.Fatalf("re-armed timer fired %v after arming, before its 10ms deadline", early)
		}
		if armed, heap := timerCounts(n); armed != 0 || heap != 0 {
			t.Fatalf("table after all fired: %d armed, %d heap entries", armed, heap)
		}
	})

	t.Run("equal deadlines fire in arming order", func(t *testing.T) {
		var h timerHeap
		h.arm(5, 100)
		h.arm(3, 100)
		h.arm(9, 100)
		h.arm(1, 50)
		h.arm(7, 100)
		h.cancel(7)
		var got []consensus.TimerID
		for id, ok := h.popDue(100); ok; id, ok = h.popDue(100) {
			got = append(got, id)
		}
		if fmt.Sprint(got) != "[1 5 3 9]" {
			t.Fatalf("fired %v, want [1 5 3 9]", got)
		}
		if len(h.heap) != 0 || len(h.armed) != 0 {
			t.Fatalf("drained heap holds %d entries, %d armed", len(h.heap), len(h.armed))
		}
	})

	t.Run("zero delay fires after SetTimer returned", func(t *testing.T) {
		var f fires
		inSetTimer, firedInside := false, false
		_, n := scriptedNode(t, func(int) *scripted {
			return &scripted{
				message: func(n *Node, _ consensus.ProcessID, _ consensus.Message) {
					inSetTimer = true
					n.SetTimer(1, 0)
					n.SetTimer(2, -time.Second)
					inSetTimer = false
				},
				timer: func(n *Node, id consensus.TimerID) {
					firedInside = firedInside || inSetTimer
					record(&f)(n, id)
				},
			}
		})
		n.enqueueMessage(0, note(0))
		eventually(t, "both timers", func() bool { return count(&f) == 2 })
		if _, heap := timerCounts(n); firedInside || heap != 0 {
			t.Fatalf("fired inside SetTimer: %v; heap entries left: %d", firedInside, heap)
		}
	})

	t.Run("a handler re-arming its own ID fires once per arming", func(t *testing.T) {
		var f fires
		_, n := scriptedNode(t, func(int) *scripted {
			return &scripted{
				init: func(n *Node) { n.SetTimer(1, time.Millisecond) },
				timer: func(n *Node, id consensus.TimerID) {
					record(&f)(n, id)
					switch count(&f) {
					case 1:
						n.SetTimer(id, 0)
					case 2:
						n.SetTimer(id, time.Millisecond)
					}
				},
			}
		})
		eventually(t, "three fires", func() bool { return count(&f) == 3 })
		time.Sleep(5 * time.Millisecond)
		if armed, _ := timerCounts(n); count(&f) != 3 || armed != 0 {
			t.Fatalf("%d fires for 3 armings, %d still armed", count(&f), armed)
		}
	})

	t.Run("a timer armed before Crash never reaches the next incarnation", func(t *testing.T) {
		var second fires
		booted := make(chan struct{}, 2)
		c, n := scriptedNode(t, func(k int) *scripted {
			if k == 0 {
				return &scripted{init: func(n *Node) {
					n.SetTimer(1, 10*time.Millisecond)
					n.SetTimer(2, 0)
					booted <- struct{}{}
				}, timer: func(*Node, consensus.TimerID) {}}
			}
			return &scripted{init: func(*Node) { booted <- struct{}{} }, timer: record(&second)}
		})
		<-booted
		c.Crash(0)
		c.Restart(0)
		<-booted
		time.Sleep(30 * time.Millisecond)
		if armed, heap := timerCounts(n); count(&second) != 0 || armed != 0 || heap != 0 {
			t.Fatalf("restarted incarnation saw %v; table holds %d armed, %d heap entries", second.ids, armed, heap)
		}
	})
}

// TestNodeInboxOrderAndBound: the inbox is FIFO per sender however the
// loop's swaps cut it into batches, and holds inboxBound messages.
func TestNodeInboxOrderAndBound(t *testing.T) {
	t.Run("per-sender FIFO across batches", func(t *testing.T) {
		const senders, each = 4, 5000
		var handled [senders]atomic.Int64
		var misordered atomic.Int64
		c, n := scriptedNode(t, func(int) *scripted {
			return &scripted{message: func(_ *Node, from consensus.ProcessID, m consensus.Message) {
				if int64(m.(note)) != handled[from].Load() {
					misordered.Add(1)
				}
				handled[from].Add(1)
			}}
		})
		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					// At most 512 in flight per sender: half the bound in all.
					for int64(i)-handled[s].Load() >= 512 {
						time.Sleep(50 * time.Microsecond)
					}
					n.enqueueMessage(consensus.ProcessID(s), note(i))
				}
			}(s)
		}
		wg.Wait()
		for s := range handled {
			eventually(t, "every message handled", func() bool { return handled[s].Load() == each })
		}
		if misordered.Load() != 0 || c.Collector().TotalDropped() != 0 {
			t.Fatalf("%d messages out of their sender's order, %d dropped", misordered.Load(), c.Collector().TotalDropped())
		}
	})

	t.Run("message 4097 onto a stalled loop is dropped", func(t *testing.T) {
		release := make(chan struct{})
		var handled, misordered atomic.Int64
		c, n := scriptedNode(t, func(int) *scripted {
			return &scripted{
				init: func(*Node) { <-release },
				message: func(_ *Node, _ consensus.ProcessID, m consensus.Message) {
					if int64(m.(note)) != handled.Load() {
						misordered.Add(1)
					}
					handled.Add(1)
				},
			}
		})
		for i := 0; i <= inboxBound; i++ {
			n.enqueueMessage(0, note(i))
		}
		col := c.Collector()
		if d, ok := col.DroppedCounts(), col.DeliveredCounts(); !slices.Equal(d, []trace.TypeCount{{Type: "note", Count: 1}}) ||
			!slices.Equal(ok, []trace.TypeCount{{Type: "note", Count: inboxBound}}) {
			t.Fatalf("delivered %v, dropped %v; want %d and 1 notes", ok, d, inboxBound)
		}
		close(release)
		eventually(t, "the full inbox to drain", func() bool { return handled.Load() == inboxBound })
		if misordered.Load() != 0 {
			t.Fatalf("%d messages handled out of order", misordered.Load())
		}
	})
}

// TestNodeCrashKeepsInbox: a crash in the middle of a batch hands the rest
// of the batch and what arrived behind it, in order, to the next
// incarnation, and nothing more to the old one.
func TestNodeCrashKeepsInbox(t *testing.T) {
	release := make(chan struct{})
	reached := make(chan struct{})
	proceed := make(chan struct{})
	var mu sync.Mutex
	got := make([][]int, 2)
	handle := func(k int) func(*Node, consensus.ProcessID, consensus.Message) {
		return func(_ *Node, _ consensus.ProcessID, m consensus.Message) {
			mu.Lock()
			got[k] = append(got[k], int(m.(note)))
			mu.Unlock()
			if k == 0 && m.(note) == 2 {
				close(reached)
				<-proceed
			}
		}
	}
	c, n := scriptedNode(t, func(k int) *scripted {
		if k == 0 {
			return &scripted{init: func(*Node) { <-release }, message: handle(0)}
		}
		return &scripted{message: handle(1)}
	})
	for i := 0; i < 10; i++ { // one batch: the loop is still in Init
		n.enqueueMessage(0, note(i))
	}
	close(release)
	<-reached
	for i := 10; i < 13; i++ { // behind the batch in hand
		n.enqueueMessage(0, note(i))
	}
	crashed := make(chan struct{})
	go func() { c.Crash(0); close(crashed) }()
	eventually(t, "the crash to begin", func() bool {
		n.mu.Lock()
		defer n.mu.Unlock()
		return !n.running
	})
	n.enqueueMessage(0, note(99)) // arrives at a crashed node: dropped
	close(proceed)
	<-crashed
	c.Restart(0)
	eventually(t, "the kept messages", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got[1]) >= 10
	})
	time.Sleep(2 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(got[0]) != "[0 1 2]" || fmt.Sprint(got[1]) != "[3 4 5 6 7 8 9 10 11 12]" {
		t.Fatalf("first incarnation handled %v, second %v; want [0 1 2] and [3 … 12]", got[0], got[1])
	}
	if d := c.Collector().DroppedCounts(); !slices.Equal(d, []trace.TypeCount{{Type: "note", Count: 1}}) {
		t.Fatalf("dropped %v, want 1 note (the one sent to the crashed node)", d)
	}
}

// TestNodeMessagePathAllocs holds the per-message path at zero allocations:
// a boxed message through the inbox, a timer armed and cancelled, a timer
// armed and fired.
func TestNodeMessagePathAllocs(t *testing.T) {
	handled := make(chan struct{}, 1)
	_, n := scriptedNode(t, func(int) *scripted {
		return &scripted{
			init: func(n *Node) {
				for id := consensus.TimerID(1); id <= 8; id++ { // a warm heap
					n.SetTimer(id, time.Hour)
				}
			},
			message: func(n *Node, _ consensus.ProcessID, m consensus.Message) {
				if m.(note) == 1 {
					n.SetTimer(100, 20*time.Microsecond)
					return
				}
				handled <- struct{}{}
			},
			timer: func(*Node, consensus.TimerID) { handled <- struct{}{} },
		}
	})
	var plain, arming consensus.Message = note(0), note(1)
	if got := testing.AllocsPerRun(1000, func() {
		n.enqueueMessage(0, plain)
		<-handled
	}); got != 0 {
		t.Errorf("enqueue → handle: %v allocations per message, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		n.enqueueMessage(0, arming)
		<-handled
	}); got != 0 {
		t.Errorf("enqueue → SetTimer → fire: %v allocations, want 0", got)
	}
	churn := make(chan float64)
	n.enqueueMessage(0, onLoop(func(n *Node) {
		id := consensus.TimerID(1000)
		churn <- testing.AllocsPerRun(1000, func() {
			id++
			n.SetTimer(id, time.Hour)
			n.CancelTimer(id)
		})
	}))
	if got := <-churn; got != 0 {
		t.Errorf("SetTimer + CancelTimer of a fresh ID: %v allocations, want 0", got)
	}
}

// BenchmarkNodeDeliver is enqueue → handle through one node with a no-op
// process, from 1, 2 and 4 producer goroutines.
func BenchmarkNodeDeliver(b *testing.B) {
	for _, producers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("producers=%d", producers), func(b *testing.B) {
			var handled atomic.Int64
			_, n := scriptedNode(b, func(int) *scripted {
				return &scripted{message: func(*Node, consensus.ProcessID, consensus.Message) { handled.Add(1) }}
			})
			var m consensus.Message = note(0)
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			var sent atomic.Int64
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for sent.Add(1) <= int64(b.N) {
						// Stay under the inbox bound so nothing is dropped.
						for sent.Load()-handled.Load() > inboxBound/2 {
							time.Sleep(time.Microsecond)
						}
						n.enqueueMessage(consensus.ProcessID(p), m)
					}
				}(p)
			}
			wg.Wait()
			for handled.Load() < int64(b.N) {
				time.Sleep(time.Microsecond)
			}
		})
	}
}

// BenchmarkNodeTimerChurn is the rsm's timer pattern per slot: arm three
// fresh IDs, cancel two at once and the third when the slot is long over
// (256 slots later, which keeps the table the size a serving replica has).
func BenchmarkNodeTimerChurn(b *testing.B) {
	_, n := scriptedNode(b, func(int) *scripted { return &scripted{} })
	done := make(chan struct{})
	b.ReportAllocs()
	b.ResetTimer()
	n.enqueueMessage(0, onLoop(func(n *Node) {
		for i := 0; i < b.N; i++ {
			id := consensus.TimerID(3 * i)
			n.SetTimer(id, 40*time.Millisecond)
			n.SetTimer(id+1, 60*time.Millisecond)
			n.SetTimer(id+2, 80*time.Millisecond)
			n.CancelTimer(id)
			n.CancelTimer(id + 1)
			n.CancelTimer(id + 2 - 3*256)
		}
		close(done)
	}))
	<-done
}
