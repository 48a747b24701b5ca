package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/core/modpaxos"
	"repro/internal/live"
	"repro/internal/rsm"
)

// The serve workloads run the RSM serving path on the live runtime: real
// goroutines, real timers, and either loopback TCP or the in-memory transport
// with an injected delay.

// The replica group every RSM workload uses: the BENCH_7 shape.
const (
	replicas    = 3
	maxBatch    = 8
	maxInFlight = 4
	keySpace    = 64
)

// liveSampleEvery is how many handlers share one timed handler on the live
// runtime (see nodeTrace.every).
const liveSampleEvery = 4

// lateShare is how late the open-loop generator may run (p99) as a share of
// the median latency it reports, before a run is invalid rather than slow:
// beyond a tenth, the numbers describe the generator. It cannot be an
// absolute microsecond figure on this runtime — an idle Go scheduler polls its
// timers through epoll_wait, whose timeout is in whole milliseconds, so a
// timer-paced generator is about one tick (p99 ≈ 1150 µs) late by
// construction, and a stalled vCPU adds whole ticks.
const lateShare = 0.10

// setupRepeats is how many times a run sets its workload up: three for the
// median an untraced run reports as setup_s, once when only the layers count.
func setupRepeats(traced bool) int {
	if traced {
		return 1
	}
	return 3
}

// genNodes is G, the number of generator nodes: one goroutine (and one TCP
// connection pair to the leader) each. More generator goroutines than cores
// measures the Go scheduler, not the system.
func genNodes() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// serveParams describes one serve workload.
type serveParams struct {
	name string
	// tcp selects live.TCPTransport; otherwise live.MemTransport delays every
	// message uniformly in [0, delta].
	tcp bool
	// delta is δ for the protocol's timers and, on the memory transport, the
	// injected delay bound.
	delta time.Duration
	// rate is the open-loop offered load in ops/s over all generator nodes;
	// 0 selects the closed loop.
	rate float64
	// sessions is the number of logical sessions per generator node.
	sessions int
	// warmOps is the fixed warm-up: set-up ends once this many operations
	// are acked, so it is work, not a sleep, and a slower system sets up
	// slower.
	warmOps int64
	// segments splits the timed part; throughput and percentiles are medians
	// over segments.
	segments int
}

// expectRate is the ops/s the workload reaches today, for sizing buffers: the
// recorders start there and grow; the sample buffers cannot grow while the
// driver indexes them, so they get four times as much.
func (p serveParams) expectRate() float64 {
	if p.rate > 0 {
		return p.rate
	}
	return 16000
}

var (
	serveTCPClosed = serveParams{
		name: "serve_tcp_closed", tcp: true, delta: 2 * time.Millisecond,
		sessions: 16, warmOps: 4000, segments: 10,
	}
	serveMemOpen = serveParams{
		name: "serve_mem_open", delta: 20 * time.Millisecond, rate: 500,
		sessions: 128, warmOps: 250, segments: 10,
	}
)

// liveRun is one started serve cluster.
type liveRun struct {
	p       serveParams
	cluster *live.Cluster
	gens    []*generator
	hist    *history
	tr      *tracer // nil unless traced
	setup   time.Duration
}

// start builds the cluster, dials, and runs the fixed warm-up. horizon bounds
// how long the run may last (it sizes the open-loop schedule and the
// buffers).
func (p serveParams) start(seed int64, horizon time.Duration, traced bool) (*liveRun, error) {
	began := time.Now()
	g := genNodes()
	total := replicas + g
	run := &liveRun{p: p, hist: &history{capHint: int(p.expectRate() * horizon.Seconds())}}
	if traced {
		run.tr = newTracer(total, liveSampleEvery)
	}
	rsmFactory, err := rsm.New(rsm.Config{
		Paxos:       modpaxos.Config{Delta: p.delta},
		MaxBatch:    maxBatch,
		MaxInFlight: maxInFlight,
		NewApplier:  run.hist.newApplier,
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < g; i++ {
		cfg := genConfig{
			replicas:    replicas,
			sessions:    p.sessions,
			firstClient: int64(1000 * (i + 1)),
			keys:        keySpace,
			seed:        seed*31 + int64(i),
			retryEvery:  25 * p.delta,
			sampleCap:   int(4*p.expectRate()*horizon.Seconds())/g + 1024,
		}
		if p.rate > 0 {
			perNode := p.rate / float64(g)
			rng := rand.New(rand.NewSource(seed*7919 + int64(i)))
			cfg.schedule = poissonSchedule(rng, int(perNode*horizon.Seconds()), perNode, 10*time.Millisecond)
		}
		run.gens = append(run.gens, newGenerator(cfg))
	}
	factory, proposals := clusterFactory(rsmFactory, run.gens, run.tr, true)

	var transport live.Transport
	if p.tcp {
		rsm.RegisterMessages()
		ids := make([]consensus.ProcessID, total)
		for i := range ids {
			ids[i] = consensus.ProcessID(i)
		}
		tcp, err := live.NewTCPTransport(ids)
		if err != nil {
			return nil, err
		}
		transport = tcp
	} else {
		transport = live.NewMemTransport(live.MemTransportConfig{MaxDelay: p.delta, Seed: seed})
	}
	if run.tr != nil {
		transport = &tracedTransport{inner: transport, t: run.tr}
	}
	run.cluster, err = live.NewCluster(live.Config{
		N: total, Delta: p.delta, Transport: transport, Seed: seed,
	}, factory, proposals)
	if err != nil {
		_ = transport.Close()
		return nil, err
	}
	run.cluster.Start()
	deadline := time.Now().Add(30 * time.Second)
	for run.acked() < p.warmOps {
		if time.Now().After(deadline) {
			_ = run.cluster.Stop()
			return nil, fmt.Errorf("%s: warm-up acked %d of %d operations in 30s", p.name, run.acked(), p.warmOps)
		}
		time.Sleep(200 * time.Microsecond)
	}
	run.setup = time.Since(began)
	return run, nil
}

func (r *liveRun) acked() int64 {
	var n int64
	for _, g := range r.gens {
		n += g.acked.Load()
	}
	return n
}

// stop ends the workload: generators stop issuing, outstanding operations get
// two seconds to drain, and the cluster is stopped (which joins every node
// goroutine, so all recorders are safe to read afterwards). It returns how
// many operations were still unacknowledged.
func (r *liveRun) stop() int64 {
	for _, g := range r.gens {
		g.stop.Store(true)
	}
	deadline := time.Now().Add(2 * time.Second)
	left := func() (n int64) {
		for _, g := range r.gens {
			n += g.outstanding.Load()
		}
		return
	}
	for left() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	unacked := left()
	// Let in-flight protocol traffic land, so every sent message is also
	// delivered and handled and the probes' sums cover the same set.
	time.Sleep(3*r.p.delta + 10*time.Millisecond)
	_ = r.cluster.Stop()
	return unacked
}

// setupMedian sets the workload up n times, tearing all but the last down
// again, and returns the last run with the median set-up time.
func (p serveParams) setupMedian(n int, seed int64, horizon time.Duration, traced bool) (*liveRun, metric, error) {
	var times []float64
	for i := 0; ; i++ {
		run, err := p.start(seed, horizon, traced)
		if err != nil {
			return nil, metric{}, err
		}
		times = append(times, run.setup.Seconds())
		if i == n-1 {
			return run, metric{Value: median(times), Samples: times}, nil
		}
		run.stop()
	}
}

// run measures the workload for the given duration.
func (p serveParams) run(seed int64, seconds float64, traced bool, outDir string) (*workloadResult, error) {
	res := newResult(p.name, seed, seconds, traced)
	res.Info["generator_nodes"] = genNodes()
	res.Info["sessions_per_node"] = p.sessions
	res.Info["delta_us"] = float64(p.delta) / 1e3
	if p.tcp {
		res.Info["injected_delay"] = "none"
		res.Info["loop"] = "closed"
	} else {
		res.Info["injected_delay"] = fmt.Sprintf("uniform in [0, %v] per message", p.delta)
		res.Info["loop"] = fmt.Sprintf("open, %.0f ops/s", p.rate)
	}
	horizon := time.Duration((seconds + 10) * float64(time.Second))
	run, setup, err := p.setupMedian(setupRepeats(traced), seed, horizon, traced)
	if err != nil {
		return nil, err
	}

	// Timed part: the driver only samples the generators' ack counters at
	// the segment boundaries; everything else is read after the stop.
	type mark struct {
		at    time.Time
		acked []int64
	}
	snap := func() mark {
		m := mark{at: time.Now()}
		for _, g := range run.gens {
			m.acked = append(m.acked, g.acked.Load())
		}
		return m
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	segLen := time.Duration(seconds / float64(p.segments) * float64(time.Second))
	marks := []mark{snap()}
	for s := 0; s < p.segments; s++ {
		time.Sleep(time.Until(marks[0].at.Add(time.Duration(s+1) * segLen)))
		marks = append(marks, snap())
	}
	runtime.ReadMemStats(&after)
	var tracedWall time.Duration
	if run.tr != nil {
		tracedWall = time.Duration(run.tr.now())
	}
	unacked := run.stop()

	// Throughput and latency per segment, medians over segments.
	var tput, p50s, p99s, allLat, late []float64
	var timedOps int64
	for s := 0; s < p.segments; s++ {
		var n int64
		var lat []float64
		for gi, g := range run.gens {
			lo, hi := marks[s].acked[gi], marks[s+1].acked[gi]
			if hi > int64(len(g.samples)) {
				return nil, fmt.Errorf("%s: sample buffer overflow (%d acked, room for %d)", p.name, hi, len(g.samples))
			}
			n += hi - lo
			for _, sm := range g.samples[lo:hi] {
				lat = append(lat, float64(sm.lat)/1e3)
				late = append(late, float64(sm.late)/1e3)
			}
		}
		timedOps += n
		tput = append(tput, float64(n)/marks[s+1].at.Sub(marks[s].at).Seconds())
		sort.Float64s(lat)
		p50s = append(p50s, percentile(lat, 0.50))
		p99s = append(p99s, percentile(lat, 0.99))
		allLat = append(allLat, lat...)
	}
	sort.Float64s(allLat)
	sort.Float64s(late)

	var acked []opID
	var busy, retries int64
	backlogMax := 0
	for _, g := range run.gens {
		acked = append(acked, g.ackedOps()...)
		busy += g.busyCount
		retries += g.retries
		if g.backlogMax > backlogMax {
			backlogMax = g.backlogMax
		}
	}
	var slotOf map[opID]int64
	if traced {
		slotOf = make(map[opID]int64, len(acked))
	}
	found := checkHistory(acked, run.hist.logs, slotOf)

	res.Attempted = timedOps + unacked
	res.Failed = unacked + int64(found.count)
	res.Findings = found.first
	if unacked > 0 {
		res.Findings = append(res.Findings, fmt.Sprintf("%d operations unacknowledged two seconds after the stop", unacked))
	}
	res.Correct = res.Failed == 0
	lateP99 := percentile(late, 0.99)
	res.Valid = lateP99 <= lateShare*median(p50s)
	res.Info["samples"] = len(allLat)
	res.Info["op_p50_us_all_samples"] = percentile(allLat, 0.50)
	res.Info["op_p99_us_all_samples"] = percentile(allLat, 0.99)
	res.Info["gen_late_p99_us"] = lateP99
	res.Info["backlog_max"] = backlogMax
	res.Info["busy_replies"] = busy
	res.Info["retransmissions"] = retries

	res.EndToEnd.set("setup_s", setup.Value, setup.Samples...)
	res.EndToEnd.set("ops_per_s", median(tput), tput...)
	res.EndToEnd.set("op_p50_us", median(p50s), p50s...)
	res.EndToEnd.set("op_p99_us", median(p99s), p99s...)
	res.EndToEnd.set("alloc_kb_per_op", ratio(float64(after.TotalAlloc-before.TotalAlloc)/1024, float64(timedOps)))

	if run.tr != nil {
		p.layerMetrics(res, run, tracedWall, busy, retries)
		res.PerLayer.set("gen.late_p99_us", lateP99)
		res.PerLayer.set("gen.backlog_max", float64(backlogMax))
		path, err := run.tr.write(outDir, p.name, seed, slotOf)
		if err != nil {
			return nil, err
		}
		res.TraceFile = path
	}
	return res, nil
}

// layerMetrics turns the traced run's probes into the per-layer metrics and
// the leader's layer budget. The probes cover the whole run, warm-up
// included, so per-op numbers divide by every acknowledged operation and
// shares by wall, the time since the tracer's epoch.
func (p serveParams) layerMetrics(res *workloadResult, run *liveRun, wall time.Duration, busy, retries int64) {
	tr := run.tr
	allOps := float64(run.acked())
	if allOps == 0 {
		return
	}
	lead := tr.leader(replicas)
	ln := tr.nodes[lead]
	handlers := ln.sum(isHandler)
	sends, xport, puts := ln.get(spanSend), ln.get(spanTransport), ln.get(spanStore+"put")
	store := ln.sum(isStore)

	var followerSelf float64
	var recipients, timerFires, handled, handleStart int64
	for i, n := range tr.nodes {
		if i < replicas {
			recipients += n.recipients
			if i != lead {
				followerSelf += float64(n.sum(isHandler).Self)
			}
		}
		timerFires += n.timerFires
		handled += n.msgsHandled
		handleStart += n.handleStart
	}
	cmds, slots := appliedShape(run.hist.logs)
	sent, sendExit, delivered, deliverAt := tr.linkTotals()
	var allSend agg
	for _, n := range tr.nodes {
		a := n.get(spanTransport)
		allSend.Count += a.Count
		allSend.Total += a.Total
	}

	m := res.PerLayer
	m.set("rsm.ops_per_slot", ratio(float64(cmds), float64(slots)))
	m.set("rsm.msgs_per_op", float64(recipients)/allOps)
	m.set("rsm.leader_step_us_per_op", float64(handlers.Self)/1e3/allOps)
	m.set("rsm.follower_step_us_per_op", followerSelf/1e3/float64(replicas-1)/allOps)
	m.set("rsm.leader_busy_share", float64(ln.handlerBusy)/float64(wall))
	m.set("rsm.busy_per_kop", 1000*float64(busy)/allOps)
	m.set("rsm.retries_per_kop", 1000*float64(retries)/allOps)
	m.set("storage.puts_per_op", float64(puts.Count)/allOps)
	m.set("storage.put_us_per_op", float64(puts.Total)/1e3/allOps)
	m.set("live.node.timer_fires_per_op", float64(timerFires)/allOps)

	layer := "live.mem."
	if p.tcp {
		layer = "live.tcp."
		m.set("live.tcp.msgs_per_s", float64(sent)/wall.Seconds())
	}
	m.set(layer+"send_us_per_msg", ratio(float64(allSend.Total)/1e3, float64(allSend.Count)))
	// The sums pair up only when every sent message was delivered and every
	// delivered one handled, which the quiet period before the stop ensures.
	matched := sent == delivered && delivered == handled
	res.Info["probe_messages_sent"] = sent
	res.Info["probe_messages_matched"] = matched
	transit := ratio(float64(deliverAt-sendExit)/1e3, float64(delivered))
	inbox := ratio(float64(handleStart-deliverAt)/1e3, float64(handled))
	if matched {
		m.set(layer+"transit_us_per_msg", transit)
		m.set("live.node.inbox_wait_us_per_msg", inbox)
		if !p.tcp {
			m.set("rsm.msg_delays_per_commit", ratio(res.EndToEnd["op_p50_us"].Value, transit))
		}
	}

	// The leader's budget: where its event loop's time goes, per operation.
	self := float64(handlers.Total-sends.Total-store.Total) / 1e3 / allOps
	nodeSend := float64(sends.Total-xport.Total) / 1e3 / allOps
	res.Budget = &layerBudget{
		Leader: lead,
		Busy: []budgetRow{
			{"rsm+modpaxos step (handler self time)", self},
			{"live.Node send overhead (around the transport)", nodeSend},
			{"Transport.Send", float64(xport.Total) / 1e3 / allOps},
			{"Store.Put/Get/Delete", float64(store.Total) / 1e3 / allOps},
		},
		BusyWant:      float64(ln.handlerBusy) / 1e3 / allOps,
		TransitPerMsg: transit,
		InboxPerMsg:   inbox,
	}
}
