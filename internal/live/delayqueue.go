package live

import (
	"sync"
	"time"

	"repro/internal/core/consensus"
)

// ordered is an entry of a binary min-heap kept in a slice; node timers and
// delayed deliveries share the sift code.
type ordered[T any] interface{ before(T) bool }

func siftUp[T ordered[T]](h []T, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func siftDown[T ordered[T]](h []T, i int) {
	for least := i; ; i = least {
		for c := 2*i + 1; c <= 2*i+2 && c < len(h); c++ {
			if h[c].before(h[least]) {
				least = c
			}
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
	}
}

// popMin drops the earliest entry, zeroing its slot so it pins nothing.
func popMin[T ordered[T]](h []T) []T {
	last := len(h) - 1
	h[0], h[last] = h[last], *new(T)
	siftDown(h[:last], 0)
	return h[:last]
}

// delivery is one delayed message; h is MemTransport's handler for to.
type delivery struct {
	at       time.Duration // deadline, since the queue's epoch
	seq      uint64
	from, to consensus.ProcessID
	msg      consensus.Message
	h        func(consensus.ProcessID, consensus.Message)
}

func (a delivery) before(b delivery) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// delayQueue hands a transport's delayed deliveries, in (deadline, send)
// order, one at a time to deliver, from a goroutine that runs only while
// any are pending. It sleeps on one timer and a one-token wake channel,
// which a push fills only for a new head; it reads the head under mu before
// each sleep, so no wake-up is lost. mu also guards the transport's state.
//
// A blocked deliver holds up the rest. Under a PolicyTransport over TCP,
// deliver is TCPTransport.Send, which blocks while the link's queue is
// full. The model allows it: a message sent before TS may be delayed
// without bound, and traffic sent after TS skips the queue.
type delayQueue struct {
	mu      sync.Mutex
	closed  bool
	heap    []delivery
	seq     uint64
	serving bool // a run goroutine exists; it alone reads timer
	timer   *time.Timer
	wake    chan struct{}
	epoch   time.Time
	deliver func(delivery)
	serve   func() // q.run bound once: `go q.run()` allocates a closure
	wg      sync.WaitGroup
}

func (q *delayQueue) init(deliver func(delivery)) {
	q.epoch, q.deliver, q.serve = time.Now(), deliver, q.run
	q.wake = make(chan struct{}, 1)
	q.timer = time.NewTimer(time.Hour)
	q.timer.Stop()
}

// now is the clock deadlines are read against.
func (q *delayQueue) now() time.Duration { return time.Since(q.epoch) }

// push schedules d for d.at. The caller holds mu and has seen the queue
// open.
func (q *delayQueue) push(d delivery) {
	d.seq = q.seq
	q.seq++
	q.heap = append(q.heap, d)
	siftUp(q.heap, len(q.heap)-1)
	if !q.serving {
		q.serving = true
		q.wg.Add(1)
		go q.serve()
	} else if q.heap[0].seq == d.seq {
		notify(q.wake)
	}
}

// notify leaves a token in a one-token wake channel; it never blocks.
func notify(wake chan struct{}) {
	select {
	case wake <- struct{}{}:
	default:
	}
}

// run delivers due entries in heap order and sleeps until the next deadline
// or a wake-up, until the queue is empty or closed.
func (q *delayQueue) run() {
	defer q.wg.Done()
	q.mu.Lock()
	for !q.closed && len(q.heap) > 0 {
		if wait := q.heap[0].at - q.now(); wait > 0 {
			q.mu.Unlock()
			q.timer.Reset(wait)
			select {
			case <-q.timer.C:
			case <-q.wake:
				q.timer.Stop()
			}
		} else {
			d := q.heap[0]
			q.heap = popMin(q.heap)
			q.mu.Unlock()
			q.deliver(d)
		}
		q.mu.Lock()
	}
	q.serving = false
	q.mu.Unlock()
}

// close drops the pending deliveries and waits for the one in progress; a
// second close finds nothing to drop or wait for.
func (q *delayQueue) close() {
	q.mu.Lock()
	q.closed, q.heap = true, nil
	q.mu.Unlock()
	notify(q.wake)
	q.wg.Wait()
}
