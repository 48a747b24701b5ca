package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/harness"
	"repro/internal/live"
	"repro/internal/rsm"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/storage"
	"repro/internal/trace"
)

// The layer suite isolates one hop per entry: a fixed-iteration loop around
// one public function, sized to a time budget, repeated, and reported as the
// median. It is not a workload; it is the list of per-layer baselines the
// workloads' end-to-end numbers are explained by.

// fullLayerBudget is the per-entry time of -layers and -workload all: five
// repeats of a loop sized to 200 ms.
const fullLayerBudget = 1.0

// timeLoop sizes n so that loop(n) lasts about budget/repeats, runs it
// repeats times and returns the median nanoseconds per iteration.
func timeLoop(budget float64, loop func(n int)) float64 {
	repeats := 5
	if budget < fullLayerBudget {
		repeats = 3
	}
	target := time.Duration(budget / float64(repeats) * float64(time.Second))
	n := 1
	for {
		began := time.Now()
		loop(n)
		took := time.Since(began)
		if took >= target/4 || n >= 1<<28 {
			if scaled := int(float64(n) * float64(target) / float64(took+1)); scaled > n {
				n = scaled
			}
			break
		}
		n *= 8
	}
	var per []float64
	for r := 0; r < repeats; r++ {
		began := time.Now()
		loop(n)
		per = append(per, float64(time.Since(began))/float64(n))
	}
	return median(per)
}

// nullProc ignores everything: the entry measures the network and the engine.
type nullProc struct{}

func (nullProc) Init(consensus.Environment)                           {}
func (nullProc) HandleMessage(consensus.ProcessID, consensus.Message) {}
func (nullProc) HandleTimer(consensus.TimerID)                        {}

func nullFactory(consensus.ProcessID, int, consensus.Value) consensus.Process { return nullProc{} }

// plainState is pointer-free, so MemStore keeps it as a boxed copy; gobState
// has mutable indirection and takes MemStore's gob path.
type plainState struct {
	Ballot, Accepted int64
	Decided          bool
}

type gobState struct {
	Ballot int64
	Votes  map[int]int64
	Log    []string
}

// suiteError carries a failed set-up step out of an entry; layerSuite turns it
// back into an ordinary error.
type suiteError struct{ err error }

func must(err error) {
	if err != nil {
		panic(suiteError{err})
	}
}

// layerEntry is one group of the suite: the metrics it produces and the
// function that measures them with the given per-metric budget in seconds.
type layerEntry struct {
	names []string
	run   func(budget float64, outDir string) []float64
}

// ping is the message the transport and simulator entries move around.
var ping consensus.Message = rsm.SlotMsg{Slot: 7, Inner: rsm.Learn{From: 3}}

// layerTable lists the suite in report order.
var layerTable = []layerEntry{
	{[]string{"sim.step_ns"}, simStep},
	{[]string{"sim.multicast_ns_per_rcpt"}, simMulticast},
	{[]string{"simnet.route_ns_per_msg", "simnet.fate_ns_per_msg"}, simnetRoute},
	{[]string{"simnet.broadcast_n1000_ms"}, simnetBroadcast},
	{[]string{"core.modpaxos.run_us", "core.paxos.run_us", "core.roundbased.run_us", "core.bconsensus.run_us", "core.modpaxos.run_allocs"}, coreRuns},
	{[]string{"scenario.overhead_share"}, scenarioOverhead},
	{[]string{"storage.mem_put_plain_ns", "storage.mem_put_gob_ns", "storage.file_put_us"}, storagePuts},
	{[]string{"rsm.batch.encode_ns_per_cmd", "rsm.batch.decode_ns_per_cmd", "rsm.snapshot.encode_us"}, rsmCodec},
	{[]string{"live.tcp.rtt_us", "live.tcp.oneway_msgs_per_s"}, liveTCP},
	{[]string{"live.mem.rtt_us", "live.policy.overhead_ns_per_msg"}, liveMem},
	{[]string{"trace.hist_observe_ns", "trace.counter_id_ns", "trace.counter_str_ns"}, traceCounters},
}

// layerEntries is the number of metrics the suite produces; runOne divides a
// run's layer-suite time evenly among them.
func layerEntries() int {
	n := 0
	for _, e := range layerTable {
		n += len(e.names)
	}
	return n
}

// layerSuite runs every entry with the given per-metric budget in seconds.
// outDir hosts the FileStore entry's scratch directory.
func layerSuite(budget float64, outDir string) (m metricSet, err error) {
	defer func() {
		if r := recover(); r != nil {
			se, ok := r.(suiteError)
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("layer suite: %w", se.err)
		}
	}()
	m = metricSet{}
	for _, e := range layerTable {
		for i, v := range e.run(budget, outDir) {
			m.set(e.names[i], v)
		}
	}
	return m, nil
}

// simStep is schedule+pop churn against a standing queue of 64 events.
func simStep(budget float64, _ string) []float64 {
	noop := func() {}
	eng := sim.NewEngine(1)
	for i := 0; i < 64; i++ {
		eng.After(time.Duration(i+1)*time.Microsecond, noop)
	}
	return []float64{timeLoop(budget, func(n int) {
		for i := 0; i < n; i++ {
			eng.After(100*time.Microsecond, noop)
			eng.Step()
		}
	})}
}

// simMulticast is one 32-recipient multicast built, committed and drained.
func simMulticast(budget float64, _ string) []float64 {
	const rcpts = 32
	eng := sim.NewEngine(1)
	eng.SetDeliverySink(func(int32, int32, int64, any) {})
	return []float64{timeLoop(budget, func(n int) {
		for i := 0; i < n; i++ {
			mc := eng.BeginMulticast(0, 0, ping, rcpts)
			for r := 0; r < rcpts; r++ {
				mc.Add(int32(r), eng.Now()+time.Duration(r+1))
			}
			mc.Commit()
			for eng.Step() {
			}
		}
	}) / rcpts}
}

// simnetRoute is N=5 all-to-all unicast, routed and delivered: on the stable
// path (Synchronous, TS=0) and through a pre-TS fate draw (Chaos).
func simnetRoute(budget float64, _ string) []float64 {
	route := func(policy simnet.Policy, ts time.Duration) float64 {
		const n = 5
		eng := sim.NewEngine(1)
		nw, err := simnet.New(eng, simnet.Config{
			N: n, Delta: 10 * time.Millisecond, TS: ts, Policy: policy, Collector: trace.NewCollector(),
		}, nullFactory, make([]consensus.Value, n))
		must(err)
		nw.Start()
		return timeLoop(budget, func(iters int) {
			for i := 0; i < iters; i++ {
				for from := 0; from < n; from++ {
					for to := 0; to < n; to++ {
						nw.Node(consensus.ProcessID(from)).Send(consensus.ProcessID(to), ping)
					}
				}
				for eng.Step() {
				}
			}
		}) / (n * n)
	}
	return []float64{
		route(simnet.Synchronous{}, 0),
		// TS far in the future keeps every send on the policy path; the
		// short MaxDelay keeps the clock from ever reaching it.
		route(simnet.Chaos{DropProb: 0.3, MaxDelay: time.Millisecond}, 1<<60),
	}
}

// simnetBroadcast is one all-to-all broadcast round at N=1000 on arena-warm
// storage, in milliseconds.
func simnetBroadcast(budget float64, _ string) []float64 {
	const n = 1000
	arena := simnet.NewArena()
	round := func(seed int64) {
		eng := arena.Engine(seed)
		nw, err := simnet.New(eng, simnet.Config{
			N: n, Delta: 10 * time.Millisecond, Collector: trace.NewCollector(), Arena: arena,
		}, nullFactory, make([]consensus.Value, n))
		must(err)
		nw.Start()
		for p := 0; p < n; p++ {
			nw.Node(consensus.ProcessID(p)).Broadcast(ping)
		}
		eng.Run(time.Second)
	}
	round(1)
	return []float64{timeLoop(budget, func(iters int) {
		for i := 0; i < iters; i++ {
			round(int64(i) + 2)
		}
	}) / 1e6}
}

// coreRuns is one full N=5 unstable-start run of each protocol through
// harness.Run — the unit of work every grid cell is built from — and the
// allocation count of the modified-Paxos one.
func coreRuns(budget float64, _ string) []float64 {
	run := func(p harness.Protocol, seed int64) {
		res, err := harness.Run(harness.Config{
			Protocol: p, N: 5, Delta: 10 * time.Millisecond, TS: 200 * time.Millisecond, Rho: 0.01, Seed: seed,
		})
		must(err)
		if !res.Decided {
			must(fmt.Errorf("%s run with seed %d did not decide", p, seed))
		}
	}
	var out []float64
	for _, p := range []harness.Protocol{harness.ModifiedPaxos, harness.TraditionalPaxos, harness.RoundBased, harness.ModifiedBConsensus} {
		p := p
		out = append(out, timeLoop(budget, func(n int) {
			for i := 0; i < n; i++ {
				run(p, int64(i))
			}
		})/1e3)
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run(harness.ModifiedPaxos, int64(i))
	}
	runtime.ReadMemStats(&after)
	return append(out, float64(after.Mallocs-before.Mallocs)/runs)
}

// scenarioOverhead is what the scenario engine adds on top of the bare
// harness runs of one cell: 1 − bare ÷ engine.
func scenarioOverhead(budget float64, _ string) []float64 {
	spec, ok := scenario.Lookup("split-brain-until-TS")
	if !ok {
		must(fmt.Errorf("canned scenario split-brain-until-TS is gone"))
	}
	spec.Seeds, spec.Workers, spec.KeepRuns = 8, 1, true
	rep, err := scenario.Run(spec)
	must(err)
	cfgs := make([]harness.Config, len(rep.Runs()))
	arena := simnet.NewArena() // the engine's workers reuse storage too
	for i, r := range rep.Runs() {
		cfgs[i] = r.Cfg
		cfgs[i].Arena = arena
	}
	spec.KeepRuns = false
	engine := timeLoop(budget, func(n int) {
		for i := 0; i < n; i++ {
			_, err := scenario.Run(spec)
			must(err)
		}
	})
	bare := timeLoop(budget, func(n int) {
		for i := 0; i < n; i++ {
			for _, cfg := range cfgs {
				_, err := harness.Run(cfg)
				must(err)
			}
		}
	})
	return []float64{1 - bare/engine}
}

// storagePuts is one Put of a protocol-sized record: MemStore's boxed-copy
// and gob paths, and FileStore.
func storagePuts(budget float64, outDir string) []float64 {
	mem := storage.NewMemStore()
	plain := plainState{Ballot: 42, Accepted: 41}
	plainNs := timeLoop(budget, func(n int) {
		for i := 0; i < n; i++ {
			plain.Ballot = int64(i)
			must(mem.Put(storage.KeyModPaxosState, plain))
		}
	})
	gobbed := gobState{Votes: map[int]int64{0: 1, 1: 2, 2: 3}, Log: []string{"a", "b", "c"}}
	gobNs := timeLoop(budget, func(n int) {
		for i := 0; i < n; i++ {
			gobbed.Ballot = int64(i)
			must(mem.Put(storage.KeyPaxosState, gobbed))
		}
	})
	dir := filepath.Join(outDir, fmt.Sprintf("filestore-%d", os.Getpid()))
	fs, err := storage.NewFileStore(dir)
	must(err)
	fileNs := timeLoop(budget, func(n int) {
		for i := 0; i < n; i++ {
			plain.Ballot = int64(i)
			must(fs.Put(storage.KeyModPaxosState, plain))
		}
	})
	must(os.RemoveAll(dir))
	return []float64{plainNs, gobNs, fileNs / 1e3}
}

// rsmCodec is the batch codec at the serving path's batch size, and a
// snapshot of a 10k-key store.
func rsmCodec(budget float64, _ string) []float64 {
	cmds := make([]rsm.Command, maxBatch)
	for i := range cmds {
		cmds[i] = rsm.Command{Client: int64(1000 + i), Seq: uint64(100 + i), Op: consensus.Value(fmt.Sprintf("set k%d 1000.%d", i, 100+i))}
	}
	var enc consensus.Value
	encNs := timeLoop(budget, func(n int) {
		for i := 0; i < n; i++ {
			enc = rsm.EncodeBatch(cmds)
		}
	})
	decNs := timeLoop(budget, func(n int) {
		for i := 0; i < n; i++ {
			if len(rsm.DecodeBatch(enc)) != maxBatch {
				must(fmt.Errorf("batch codec round trip lost commands"))
			}
		}
	})
	kv := rsm.NewKVStore()
	for i := 0; i < 10000; i++ {
		kv.Apply(int64(i), consensus.Value(fmt.Sprintf("set key%d value%d", i, i)))
	}
	snapNs := timeLoop(budget, func(n int) {
		for i := 0; i < n; i++ {
			_, err := kv.Snapshot()
			must(err)
		}
	})
	return []float64{encNs / maxBatch, decNs / maxBatch, snapNs / 1e3}
}

// liveTCP is a ping-pong and a one-way stream of an rsm.SlotMsg between two
// registered ids over loopback TCP.
func liveTCP(budget float64, _ string) []float64 {
	rsm.RegisterMessages()
	tcp, err := live.NewTCPTransport([]consensus.ProcessID{0, 1})
	must(err)
	pong := make(chan struct{}, 1) // one ping is in flight at a time
	var got atomic.Int64
	var streaming atomic.Bool
	tcp.Register(0, func(consensus.ProcessID, consensus.Message) { pong <- struct{}{} })
	tcp.Register(1, func(from consensus.ProcessID, msg consensus.Message) {
		if streaming.Load() {
			got.Add(1)
			return
		}
		tcp.Send(1, from, msg)
	})
	rtt := timeLoop(budget, func(n int) {
		for i := 0; i < n; i++ {
			tcp.Send(0, 1, ping)
			<-pong
		}
	})
	streaming.Store(true)
	perMsg := timeLoop(budget, func(n int) {
		want := got.Load() + int64(n)
		for i := 0; i < n; i++ {
			tcp.Send(0, 1, ping)
		}
		for got.Load() < want {
			runtime.Gosched()
		}
	})
	must(tcp.Close())
	return []float64{rtt / 1e3, 1e9 / perMsg}
}

// liveMem is the same ping-pong over the memory transport with no delay
// (delivery is a synchronous call, so the echo has landed when Send returns),
// bare and under a PolicyTransport past its TS.
func liveMem(budget float64, _ string) []float64 {
	roundTrip := func(tr live.Transport) float64 {
		tr.Register(0, func(consensus.ProcessID, consensus.Message) {})
		tr.Register(1, func(from consensus.ProcessID, msg consensus.Message) { tr.Send(1, from, msg) })
		per := timeLoop(budget, func(n int) {
			for i := 0; i < n; i++ {
				tr.Send(0, 1, ping)
			}
		})
		must(tr.Close())
		return per
	}
	bare := roundTrip(live.NewMemTransport(live.MemTransportConfig{}))
	wrapped := roundTrip(live.NewPolicyTransport(live.NewMemTransport(live.MemTransportConfig{}),
		live.PolicyTransportConfig{Delta: time.Millisecond}))
	// A round trip crosses the policy layer twice.
	return []float64{bare / 1e3, (wrapped - bare) / 2}
}

// traceCounters is one histogram observation, and the interned counter
// against the mutexed string-keyed one the live runtime still uses.
func traceCounters(budget float64, _ string) []float64 {
	h := trace.NewHistogram(trace.UnitNanos)
	hist := timeLoop(budget, func(n int) {
		for i := 0; i < n; i++ {
			h.Observe(int64(i))
		}
	})
	c := trace.NewCollector()
	id := c.Intern(ping.Type())
	byID := timeLoop(budget, func(n int) {
		for i := 0; i < n; i++ {
			c.SentID(id)
		}
	})
	name := ping.Type()
	byName := timeLoop(budget, func(n int) {
		for i := 0; i < n; i++ {
			c.MessageSent(name)
		}
	})
	return []float64{hist, byID, byName}
}
