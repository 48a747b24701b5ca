package live

import (
	"testing"
	"time"

	"repro/internal/trace"
)

// TestCollectorReadersDuringLiveRun is the race-detector regression for the
// collector's reader methods: a polling goroutine hammers every read API
// (counters, series, reports, snapshots) while a live cluster writes to the
// same collector from node and transport goroutines. Run under -race this
// fails on any unlocked reader; run plain it still asserts the readers
// return deterministically-ordered data mid-flight.
func TestCollectorReadersDuringLiveRun(t *testing.T) {
	collector := trace.NewCollector()
	collector.EnableSpans(0)
	collector.EnableHistograms()
	transport := NewMemTransport(MemTransportConfig{
		MaxDelay: delta, Seed: 1, Collector: collector,
	})
	c, err := NewCluster(Config{
		N: 5, Delta: delta, TS: 0,
		Transport: transport, Collector: collector, Seed: 1,
	}, factory(t, "modpaxos", delta), distinctProposals(5))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.Stop(); err != nil {
			t.Errorf("Stop: %v", err)
		}
	}()

	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = collector.SentByType()
			_ = collector.SentCounts()
			_ = collector.DeliveredCounts()
			_ = collector.DroppedCounts()
			for _, s := range collector.Series("session") {
				_ = s
			}
			_ = collector.HistogramSnapshots()
			snap := collector.Snapshot()
			for i := 1; i < len(snap.Spans); i++ {
				a, b := snap.Spans[i-1], snap.Spans[i]
				if b.Start < a.Start {
					t.Error("Snapshot spans out of order")
					return
				}
			}
			for i := 1; i < len(snap.Sent); i++ {
				if snap.Sent[i].Type < snap.Sent[i-1].Type {
					t.Error("Snapshot sent counts out of order")
					return
				}
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	c.Start()
	if err := c.WaitAllDecided(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-readerDone
	if err := c.Checker().Violation(); err != nil {
		t.Fatal(err)
	}

	// The run recorded what the instrumentation promises: a decide-latency
	// sample per process and at least one session span, every one of them
	// ended by its process deciding.
	if h, ok := collector.HistogramCopy(trace.HistDecideLatency); !ok || h.Count() != 5 {
		t.Fatalf("decide-latency count = %v (ok=%v), want 5", h.Count(), ok)
	}
	sawSession := false
	for _, s := range collector.Snapshot().Spans {
		if s.Kind == "session" {
			sawSession = true
		}
		if s.Open {
			t.Errorf("%s %d of process %d left open after every process decided", s.Kind, s.Value, s.Proc)
		}
	}
	if !sawSession {
		t.Fatal("no session span recorded by a live modpaxos run")
	}
}
