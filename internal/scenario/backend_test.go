package scenario

import (
	"testing"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/trace"
)

// probeMsg is the one message a dropProbe sends.
type probeMsg struct{}

func (probeMsg) Type() string { return "probe" }

// dropProbe sends one probe to every peer 10ms after it starts, long before
// the TS of any run below, and decides once TS has passed. A run's
// collector then counts exactly the sends its pre-TS policy judged.
type dropProbe struct {
	env consensus.Environment
	ts  time.Duration
	v   consensus.Value
}

const (
	probeSend consensus.TimerID = iota
	probeDecide
)

func (p *dropProbe) Init(env consensus.Environment) {
	p.env = env
	env.SetTimer(probeSend, 10*time.Millisecond)
}

func (p *dropProbe) HandleMessage(consensus.ProcessID, consensus.Message) {}

func (p *dropProbe) HandleTimer(id consensus.TimerID) {
	if id == probeDecide {
		p.env.Decide(p.v)
		return
	}
	for to := 0; to < p.env.N(); to++ {
		if peer := consensus.ProcessID(to); peer != p.env.ID() {
			p.env.Send(peer, probeMsg{})
		}
	}
	p.env.SetTimer(probeDecide, p.ts)
}

// TestClusterDefaultsPreTSPolicy pins the one nil-policy default
// (harness.PreTSPolicy) on both substrates a Cluster builds: with a positive
// TS every message sent before it is dropped, with TS = 0 none is.
func TestClusterDefaultsPreTSPolicy(t *testing.T) {
	const n = 3
	await := []consensus.ProcessID{0, 1, 2}
	for _, backend := range []string{BackendSim, BackendLive} {
		for _, ts := range []time.Duration{300 * time.Millisecond, 0} {
			collector := trace.NewCollector()
			decided, _, _, err := Cluster{
				Backend: backend, Delta: 5 * time.Millisecond, TS: ts, Seed: 1, Horizon: ts + 5*time.Second,
				Group: n, Collector: collector, Proposals: []consensus.Value{"v", "v", "v"}, Await: await,
				Factory: func(_ consensus.ProcessID, _ int, v consensus.Value) consensus.Process {
					return &dropProbe{ts: ts, v: v}
				},
			}.Run()
			if err != nil || !decided {
				t.Fatalf("%s TS=%v: decided %v, err %v", backend, ts, decided, err)
			}
			wantDropped := 0
			if ts > 0 {
				wantDropped = n * (n - 1)
			}
			if sent, dropped := collector.TotalSent(), collector.TotalDropped(); sent != n*(n-1) || dropped != wantDropped {
				t.Errorf("%s TS=%v: %d sent, %d dropped; want %d sent, %d dropped",
					backend, ts, sent, dropped, n*(n-1), wantDropped)
			}
		}
	}
}
