package simnet

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/sim"
	"repro/internal/trace"
)

// delivRec is one observed delivery: when, over which link, and the exact
// engine queue depth at handling time — the strictest schedule fingerprint
// available from inside a process.
type delivRec struct {
	at       time.Duration
	from, to consensus.ProcessID
	pending  int
}

// recProc records every delivery it handles.
type recProc struct {
	id  consensus.ProcessID
	eng *sim.Engine
	log *[]delivRec
}

func (recProc) Init(consensus.Environment) {}
func (p *recProc) HandleMessage(from consensus.ProcessID, _ consensus.Message) {
	*p.log = append(*p.log, delivRec{at: p.eng.Now(), from: from, to: p.id, pending: p.eng.Pending()})
}
func (recProc) HandleTimer(consensus.TimerID) {}

// dupChaos is a pre-TS policy exercising every fate the batched path must
// reproduce: drops, delays, and network duplicates.
type dupChaos struct{}

func (dupChaos) Fate(tx Transmission, rng *rand.Rand) Fate {
	f := Fate{Delay: time.Duration(rng.Int63n(int64(5 * time.Millisecond)))}
	switch r := rng.Float64(); {
	case r < 0.2:
		f.Drop = true
	case r < 0.4:
		f.Duplicates = []time.Duration{f.Delay + time.Millisecond}
	}
	return f
}

// broadcastUnicast is the pre-batching fan-out: one routed event per
// recipient. It is the reference the batched Broadcast is tested to
// schedule identically to, and the baseline BenchmarkBroadcastN1000
// measures against.
func (n *Node) broadcastUnicast(m consensus.Message) {
	for to := 0; to < n.nw.cfg.N; to++ {
		n.Send(consensus.ProcessID(to), m)
	}
}

// broadcastTrace runs a fixed schedule of fan-outs — overlapping, pre- and
// post-TS — through either the batched Broadcast or the unicast reference,
// and returns the full delivery log plus the collector.
func broadcastTrace(t *testing.T, batched bool) ([]delivRec, *trace.Collector) {
	t.Helper()
	eng := sim.NewEngine(1)
	var log []delivRec
	factory := func(id consensus.ProcessID, n int, proposal consensus.Value) consensus.Process {
		return &recProc{id: id, eng: eng, log: &log}
	}
	collector := trace.NewCollector()
	collector.EnableHistograms()
	cfg := Config{
		N: 16, Delta: 10 * time.Millisecond, TS: 100 * time.Millisecond,
		Policy: dupChaos{}, Collector: collector,
	}
	nw, err := New(eng, cfg, factory, proposals(cfg.N))
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	send := func(from consensus.ProcessID) {
		if batched {
			nw.Node(from).Broadcast(pingMsg{V: "x"})
		} else {
			nw.Node(from).broadcastUnicast(pingMsg{V: "x"})
		}
	}
	// Overlapping pre-TS fan-outs from two senders, another mid-flight, then
	// two more after stabilization while earlier deliveries are still queued.
	send(0)
	send(1)
	eng.Run(3 * time.Millisecond)
	send(2)
	eng.Run(cfg.TS - eng.Now() + time.Millisecond)
	send(3)
	send(0)
	eng.Run(time.Second)
	return log, collector
}

// TestBatchedBroadcastMatchesUnicastSchedule is the equivalence property
// the whole batching design hangs on: the batched fast path must deliver
// the same messages over the same links at the same times in the same
// order — with identical queue-depth evolution and identical trace
// accounting — as the per-recipient unicast loop, drops and duplicates
// included.
func TestBatchedBroadcastMatchesUnicastSchedule(t *testing.T) {
	gotLog, gotCol := broadcastTrace(t, true)
	wantLog, wantCol := broadcastTrace(t, false)
	if len(gotLog) == 0 {
		t.Fatal("no deliveries recorded")
	}
	if !reflect.DeepEqual(gotLog, wantLog) {
		for i := range wantLog {
			if i >= len(gotLog) || gotLog[i] != wantLog[i] {
				t.Fatalf("delivery %d diverges: batched %+v, unicast %+v (lengths %d vs %d)",
					i, gotLog[i], wantLog[i], len(gotLog), len(wantLog))
			}
		}
		t.Fatalf("batched log has %d extra deliveries", len(gotLog)-len(wantLog))
	}
	if gotCol.TotalSent() != wantCol.TotalSent() || gotCol.TotalDropped() != wantCol.TotalDropped() {
		t.Fatalf("accounting diverges: batched sent=%d dropped=%d, unicast sent=%d dropped=%d",
			gotCol.TotalSent(), gotCol.TotalDropped(), wantCol.TotalSent(), wantCol.TotalDropped())
	}
	if !reflect.DeepEqual(gotCol.SentByType(), wantCol.SentByType()) {
		t.Fatalf("per-type sends diverge: %v vs %v", gotCol.SentByType(), wantCol.SentByType())
	}
}
