package main

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/core/modpaxos"
	"repro/internal/rsm"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// cleanLogs is a two-replica history every check passes on: two slots of two
// commands, all acknowledged.
func cleanLogs() ([]opID, []*recorder) {
	entries := []applyRec{
		{Slot: 0, Idx: 0, Client: 1, Seq: 1},
		{Slot: 0, Idx: 1, Client: 2, Seq: 1},
		{Slot: 1, Idx: 0, Client: 1, Seq: 2},
		{Slot: 1, Idx: 1, Client: 2, Seq: 2},
	}
	acked := []opID{{1, 1}, {2, 1}, {1, 2}, {2, 2}}
	return acked, []*recorder{
		{replica: 0, entries: append([]applyRec(nil), entries...)},
		{replica: 1, entries: append([]applyRec(nil), entries[:3]...)}, // replicas may trail
	}
}

func TestCheckerHasTeeth(t *testing.T) {
	acked, logs := cleanLogs()
	if f := checkHistory(acked, logs, nil); f.count != 0 {
		t.Fatalf("clean history flagged: %v", f.first)
	}
	cases := []struct {
		name   string
		break_ func(acked []opID, logs []*recorder) []opID
		want   string
	}{
		{"acked write missing", func(acked []opID, _ []*recorder) []opID {
			return append(acked, opID{2, 3})
		}, "lost-ack: client 2 seq 3"},
		{"seq applied twice", func(acked []opID, logs []*recorder) []opID {
			logs[0].entries = append(logs[0].entries, applyRec{Slot: 2, Idx: 0, Client: 1, Seq: 2})
			return acked
		}, "exactly-once: client 1 seq 2"},
		{"replicas differ at a position", func(acked []opID, logs []*recorder) []opID {
			logs[1].entries[2] = applyRec{Slot: 1, Idx: 0, Client: 9, Seq: 1}
			return acked
		}, "agreement: slot 1 idx 0"},
		{"apply order not increasing", func(acked []opID, logs []*recorder) []opID {
			e := logs[1].entries
			e[0], e[1] = e[1], e[0]
			return acked
		}, "apply-order: replica 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			acked, logs := cleanLogs()
			f := checkHistory(tc.break_(acked, logs), logs, nil)
			if f.count == 0 {
				t.Fatal("checker found nothing")
			}
			if !strings.Contains(strings.Join(f.first, "\n"), tc.want) {
				t.Fatalf("findings %q lack %q", f.first, tc.want)
			}
		})
	}
}

// windowedClient pipelines one session: up to window operations outstanding
// with consecutive sequence numbers. The benchmark's generator never does
// this; the test does, to show what the checker is for.
type windowedClient struct {
	env           consensus.Environment
	total, window int
	next          uint64
	acked         map[uint64]bool
}

const windowedClientID = 77

func (c *windowedClient) Init(env consensus.Environment) {
	c.env = env
	c.acked = make(map[uint64]bool)
	for i := 0; i < c.window; i++ {
		c.send()
	}
}

func (c *windowedClient) send() {
	if int(c.next) >= c.total {
		return
	}
	c.next++
	c.env.Send(rsm.Leader(), rsm.ClientPropose{
		Client: windowedClientID, Seq: c.next, Cmd: consensus.Value("set k w." + strconv.FormatUint(c.next, 10)),
	})
}

func (c *windowedClient) HandleMessage(_ consensus.ProcessID, m consensus.Message) {
	if msg, ok := m.(rsm.Committed); ok && !c.acked[msg.Seq] {
		c.acked[msg.Seq] = true
		c.send()
		if len(c.acked) == c.total {
			c.env.Decide(doneValue)
		}
	}
}

func (c *windowedClient) HandleTimer(consensus.TimerID) {}

// TestWindowedSessionLosesAckedWrites documents the hazard the generator's
// single-outstanding sessions avoid: simnet's post-TS delays (uniform in
// [δ/10, δ]) reorder a pipelined session's proposals, rsm acknowledges any
// Seq at or below the session's high-water mark without applying it, and the
// checker must report exactly that — acknowledged writes no replica applied.
func TestWindowedSessionLosesAckedWrites(t *testing.T) {
	const ops = 2000
	delta := 2 * time.Millisecond
	hist := &history{}
	rsmFactory, err := rsm.New(rsm.Config{
		Paxos: modpaxos.Config{Delta: delta}, MaxBatch: maxBatch, MaxInFlight: maxInFlight,
		NewApplier: hist.newApplier,
	})
	if err != nil {
		t.Fatal(err)
	}
	client := &windowedClient{total: ops, window: 8}
	factory := func(id consensus.ProcessID, _ int, proposal consensus.Value) consensus.Process {
		if int(id) < replicas {
			return &replicaProc{inner: rsmFactory(id, replicas, proposal), n: replicas}
		}
		return client
	}
	proposals := make([]consensus.Value, replicas+1)
	proposals[replicas] = doneValue
	eng := sim.NewEngine(1)
	nw, err := simnet.New(eng, simnet.Config{N: replicas + 1, Delta: delta, Collector: trace.NewCollector()}, factory, proposals)
	if err != nil {
		t.Fatal(err)
	}
	nw.Start()
	clientID := []consensus.ProcessID{replicas}
	if !eng.RunUntil(func() bool { return nw.Checker().AllDecided(clientID) }, time.Minute) {
		t.Fatalf("only %d of %d operations acknowledged", len(client.acked), ops)
	}
	eng.Run(eng.Now() + 50*delta)

	var acked []opID
	for seq := range client.acked {
		acked = append(acked, opID{windowedClientID, seq})
	}
	f := checkHistory(acked, hist.logs, nil)
	cmds, _ := appliedShape(hist.logs)
	t.Logf("%d acknowledged, %d applied, %d findings", len(acked), cmds, f.count)
	if cmds >= ops {
		t.Fatalf("all %d operations applied: the reordering hazard did not reproduce", ops)
	}
	if want := int(ops - cmds); f.count != want {
		t.Fatalf("checker reported %d findings, want the %d lost acknowledged writes", f.count, want)
	}
	for _, line := range f.first {
		if !strings.HasPrefix(line, "lost-ack:") {
			t.Fatalf("unexpected finding %q", line)
		}
	}
}
