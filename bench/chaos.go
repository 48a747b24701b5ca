package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/core/modpaxos"
	"repro/internal/rsm"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// sim_rsm_chaos drives the same generator over simnet while a follower is
// restarted and the leader crashes: catch-up from a snapshot, log truncation,
// failover and Claim instead of the steady-state path. Requests keep arriving
// on schedule while no leader exists. On the seeded simulated clock the outage
// repeats exactly, and host time isolates rsm+modpaxos+sim CPU from
// goroutines and sockets.

// simSampleEvery is how many handlers share one timed handler on the
// simulator, where a handler costs well under a microsecond and an
// every-handler probe would double it.
const simSampleEvery = 16

// chaosParams describes the workload; bench_test.go runs a scaled-down copy.
type chaosParams struct {
	name  string
	delta time.Duration
	// rate is the open-loop offered load in virtual ops/s; ops is how many
	// operations one seed issues.
	rate     float64
	ops      int
	sessions int // per generator node
	// A follower is down from followerDown to followerUp — long enough to
	// fall behind the others' compaction horizon, so it catches up from a
	// snapshot — and then the leader crashes at crashAt, for good.
	followerDown, followerUp time.Duration
	crashAt                  time.Duration
	snapshotEvery            int64
	// cycleSeeds is how many seeds one cycle covers: the virtual statistics
	// are taken over exactly one cycle, whatever the host's speed. chunk is
	// how many seeds one host-time sample covers.
	cycleSeeds, chunk int
	warmSeeds         int
	// coolDown is how long arrivals keep coming after the last measured one.
	// The measured operations are a slice of an ongoing arrival process, not
	// a finite job: without it the last partial batch of a run waits for
	// traffic that never comes. Cool-down operations are checked like any
	// other but carry no latency sample and cannot fail the run.
	coolDown time.Duration
}

var simRSMChaos = chaosParams{
	name: "sim_rsm_chaos", delta: 2 * time.Millisecond,
	rate: 4000, ops: 6000, sessions: 512,
	followerDown: 100 * time.Millisecond, followerUp: 300 * time.Millisecond,
	crashAt:       600 * time.Millisecond,
	snapshotEvery: 16, cycleSeeds: 60, chunk: 6, warmSeeds: 1,
	coolDown: time.Second,
}

// follower is the replica that is restarted: the last one, which is also the
// last in line for promotion when the leader dies.
const follower = replicas - 1

// chaosSeed is the outcome of one simulated seed.
type chaosSeed struct {
	acked, unacked int64
	lat            []float64 // virtual µs, due → ack
	late           []float64
	backlogMax     int
	outage         time.Duration // crash → first ack from a surviving replica
	catchup        time.Duration // restart → restarted replica level with the group
	caughtUp       bool
	events         uint64
	failoverMsgs   int64
	busy, retries  int64
	cmds, slots    int64
	found          findings
	tr             *tracer
	// host is the wall time of building and running the simulation; checking
	// the history is the benchmark's own work and is not billed.
	host time.Duration
}

// digest summarises a seed's virtual outcome; every repeat of the seed must
// reproduce it bit for bit.
func (s *chaosSeed) digest() [32]byte {
	buf := make([]byte, 0, 8*len(s.lat)+128)
	buf = fmt.Appendf(buf, "%d %d %d %d %d %d %d %d;", s.acked, s.unacked, s.outage, s.catchup, s.events, s.cmds, s.slots, s.found.count)
	for _, l := range s.lat {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(l))
	}
	return sha256.Sum256(buf)
}

// simulate runs one seed to completion.
func (p chaosParams) simulate(seed int64, traced, keepSpans bool) (*chaosSeed, error) {
	g := genNodes()
	total := replicas + g
	out := &chaosSeed{}
	if traced {
		out.tr = newTracer(total, simSampleEvery)
		if !keepSpans {
			out.tr.keepSpans = 0
		}
	}
	began := time.Now()
	eng := sim.NewEngine(seed)
	watch := &catchupWatch{now: eng.Now, replica: follower}
	hist := &history{capHint: p.ops, onApply: watch.onApply}
	rsmFactory, err := rsm.New(rsm.Config{
		Paxos:           modpaxos.Config{Delta: p.delta},
		MaxBatch:        maxBatch,
		MaxInFlight:     maxInFlight,
		FailoverTimeout: 10 * p.delta,
		SnapshotEvery:   p.snapshotEvery,
		NewApplier:      hist.newApplier,
	})
	if err != nil {
		return nil, err
	}
	// Sends by replicas, counted from the crash until the first ack after it.
	sendsAt := func() (n int64) {
		if out.tr != nil {
			for i := 0; i < replicas; i++ {
				n += out.tr.nodes[i].recipients
			}
		}
		return
	}
	var sendsAtCrash int64
	firstAck := false
	gens := make([]*generator, g)
	perNode := p.rate / float64(g)
	for i := range gens {
		rng := rand.New(rand.NewSource(seed*7919 + int64(i)))
		gens[i] = newGenerator(genConfig{
			replicas:        replicas,
			sessions:        p.sessions,
			firstClient:     int64(1000 * (i + 1)),
			keys:            keySpace,
			seed:            seed*31 + int64(i),
			schedule:        poissonSchedule(rng, p.ops/g+int(perNode*p.coolDown.Seconds()), perNode, p.delta),
			measured:        p.ops / g,
			retryEvery:      25 * p.delta,
			rotateOnSilence: true,
			sampleCap:       p.ops/g + 1,
			onAck: func(from consensus.ProcessID, _ opID, now time.Duration) {
				// Acks the old leader sent before it died still land after the
				// crash; service is back at the first ack from someone else.
				if !firstAck && now >= p.crashAt && from != rsm.Leader() {
					firstAck = true
					out.outage = now - p.crashAt
					out.failoverMsgs = sendsAt() - sendsAtCrash
				}
			},
		})
	}
	factory, proposals := clusterFactory(rsmFactory, gens, out.tr, false)
	genIDs := make([]consensus.ProcessID, g)
	for i := range genIDs {
		genIDs[i] = consensus.ProcessID(replicas + i)
	}
	nw, err := simnet.New(eng, simnet.Config{
		N: total, Delta: p.delta, Collector: trace.NewCollector(),
	}, factory, proposals)
	if err != nil {
		return nil, err
	}
	nw.Start()
	nw.CrashAt(follower, p.followerDown)
	// Armed before the restart event runs, so the replayed log prefix already
	// counts towards catching up.
	eng.Schedule(p.followerUp, watch.arm)
	nw.RestartAt(follower, p.followerUp)
	nw.CrashAt(rsm.Leader(), p.crashAt)
	eng.Schedule(p.crashAt, func() { sendsAtCrash = sendsAt() })

	horizon := time.Duration(float64(p.ops)/p.rate*float64(time.Second)) + 10*time.Second
	checker := nw.Checker()
	eng.RunUntil(func() bool { return checker.AllDecided(genIDs) }, horizon)
	// Settle: let the restarted replica finish catching up.
	eng.Run(eng.Now() + 50*p.delta)
	out.host = time.Since(began)

	out.events = eng.Executed()
	out.catchup, out.caughtUp = watch.took, watch.resolved
	var acked []opID
	for _, gen := range gens {
		acked = append(acked, gen.ackedOps()...)
		out.acked += gen.acked.Load()
		out.unacked += int64(p.ops/g) - gen.acked.Load()
		out.busy += gen.busyCount
		out.retries += gen.retries
		if gen.backlogMax > out.backlogMax {
			out.backlogMax = gen.backlogMax
		}
		for _, sm := range gen.samples {
			out.lat = append(out.lat, float64(sm.lat)/1e3)
			out.late = append(out.late, float64(sm.late)/1e3)
		}
	}
	out.found = checkHistory(acked, hist.logs, nil)
	out.cmds, out.slots = appliedShape(hist.logs)
	if !firstAck {
		out.found.addf("no operation was acknowledged after the crash at %v", p.crashAt)
	}
	return out, nil
}

// seedFor derives the i-th simulation seed of a cycle from the workload seed.
func seedFor(seed int64, i int) int64 { return seed*1000003 + int64(i) }

// run measures the workload: set-up (a fixed warm-up simulation), then whole
// cycles' worth of chunks until the duration is up — always at least one full
// cycle, because the virtual statistics are taken over exactly that.
func (p chaosParams) run(seed int64, seconds float64, traced bool, outDir string) (*workloadResult, error) {
	res := newResult(p.name, seed, seconds, traced)
	res.Info["delta_us"] = float64(p.delta) / 1e3
	res.Info["loop"] = fmt.Sprintf("open, %.0f virtual ops/s, %d ops per seed", p.rate, p.ops)
	res.Info["seeds_per_cycle"] = p.cycleSeeds
	res.Info["generator_nodes"] = genNodes()

	var setupTimes []float64
	for i := 0; i < setupRepeats(traced); i++ {
		began := time.Now()
		for w := 0; w < p.warmSeeds; w++ {
			if _, err := p.simulate(seedFor(seed, -1-w), false, false); err != nil {
				return nil, err
			}
		}
		setupTimes = append(setupTimes, time.Since(began).Seconds())
	}

	var (
		before, after runtime.MemStats
		first         = make([]*chaosSeed, p.cycleSeeds)
		digests       = make([][32]byte, p.cycleSeeds)
		tput          []float64
		ops, unacked  int64
		events        uint64
		checks        findings
		hostTotal     time.Duration
		agg           = &tracerTotals{}
	)
	runtime.ReadMemStats(&before)
	began := time.Now()
	for i := 0; ; {
		var host time.Duration
		var chunkOps int64
		for c := 0; c < p.chunk; c, i = c+1, i+1 {
			k := i % p.cycleSeeds
			s, err := p.simulate(seedFor(seed, k), traced, i == 0)
			if err != nil {
				return nil, err
			}
			host += s.host
			chunkOps += s.acked
			ops += s.acked
			unacked += s.unacked
			events += s.events
			checks.count += s.found.count
			for _, f := range s.found.first {
				checks.first = append(checks.first, fmt.Sprintf("seed %d: %s", seedFor(seed, k), f))
			}
			d := s.digest()
			if i < p.cycleSeeds {
				first[k], digests[k] = s, d
				agg.add(s.tr, s.host)
				if i == 0 && s.tr != nil {
					// One seed's spans are enough to read; sixty would not fit.
					path, err := s.tr.write(outDir, p.name, seedFor(seed, k), nil)
					if err != nil {
						return nil, err
					}
					res.TraceFile = path
				}
				s.tr = nil
			} else if d != digests[k] {
				checks.addf("seed %d: virtual outcome differs between passes of one invocation", seedFor(seed, k))
			}
		}
		hostTotal += host
		tput = append(tput, float64(chunkOps)/host.Seconds())
		if i >= p.cycleSeeds && time.Since(began).Seconds() >= seconds {
			break
		}
	}
	runtime.ReadMemStats(&after)

	// Virtual statistics over the first cycle.
	var lat, late, outages, catchups []float64
	var cmds, slots, busy, retries, failoverMsgs, cycleOps int64
	var cycleEvents uint64
	backlogMax := 0
	for _, s := range first {
		lat = append(lat, s.lat...)
		late = append(late, s.late...)
		outages = append(outages, float64(s.outage)/1e6)
		if s.caughtUp {
			catchups = append(catchups, float64(s.catchup)/1e6)
		}
		cmds, slots = cmds+s.cmds, slots+s.slots
		busy, retries = busy+s.busy, retries+s.retries
		failoverMsgs += s.failoverMsgs
		cycleOps += s.acked
		cycleEvents += s.events
		if s.backlogMax > backlogMax {
			backlogMax = s.backlogMax
		}
	}
	sort.Float64s(lat)
	sort.Float64s(late)
	sort.Float64s(outages)

	res.Attempted = ops + unacked
	res.Failed = unacked + int64(checks.count)
	res.Findings = checks.first
	if len(res.Findings) > maxFindings {
		res.Findings = res.Findings[:maxFindings]
	}
	res.Correct = res.Failed == 0
	lateP99 := percentile(late, 0.99)
	res.Info["samples"] = len(lat)
	res.Info["host_time_samples"] = len(tput)
	res.Info["gen_late_p99_us"] = lateP99
	res.Info["backlog_max"] = backlogMax
	res.Info["restarts_caught_up"] = fmt.Sprintf("%d of %d", len(catchups), p.cycleSeeds)

	res.EndToEnd.set("setup_s", median(setupTimes), setupTimes...)
	res.EndToEnd.set("ops_per_s", median(tput), tput...)
	res.EndToEnd.set("op_p50_us", percentile(lat, 0.50))
	res.EndToEnd.set("op_p99_us", percentile(lat, 0.99))
	res.EndToEnd.set("alloc_kb_per_op", ratio(float64(after.TotalAlloc-before.TotalAlloc)/1024, float64(ops)))

	m := res.PerLayer
	m.set("rsm.outage_p50_vms", percentile(outages, 0.50))
	m.set("rsm.outage_max_vms", percentile(outages, 1))
	m.set("rsm.catchup_vms", median(catchups))
	m.set("rsm.ops_per_slot", ratio(float64(cmds), float64(slots)))
	m.set("rsm.busy_per_kop", 1000*ratio(float64(busy), float64(cycleOps)))
	m.set("rsm.retries_per_kop", 1000*ratio(float64(retries), float64(cycleOps)))
	m.set("sim.events_per_op", ratio(float64(cycleEvents), float64(cycleOps)))
	m.set("sim.events_per_s", float64(events)/hostTotal.Seconds())
	m.set("gen.late_p99_us", lateP99)
	m.set("gen.backlog_max", float64(backlogMax))
	if traced {
		m.set("rsm.failover_msgs", float64(failoverMsgs)/float64(p.cycleSeeds))
		agg.metrics(m, float64(cycleOps))
	}
	return res, nil
}

// tracerTotals folds the per-seed tracers of a traced cycle together: the
// leader (the replica that served the most proposals) and the followers.
type tracerTotals struct {
	leaderSelf, leaderBusy, followerSelf, wall float64
	recipients                                 int64
}

func (a *tracerTotals) add(tr *tracer, host time.Duration) {
	if tr == nil {
		return
	}
	lead := tr.leader(replicas)
	for i := 0; i < replicas; i++ {
		n := tr.nodes[i]
		a.recipients += n.recipients
		if i == lead {
			a.leaderSelf += float64(n.sum(isHandler).Self)
			a.leaderBusy += float64(n.handlerBusy)
		} else {
			a.followerSelf += float64(n.sum(isHandler).Self)
		}
	}
	a.wall += float64(host)
}

func (a *tracerTotals) metrics(m metricSet, ops float64) {
	m.set("rsm.msgs_per_op", ratio(float64(a.recipients), ops))
	m.set("rsm.leader_step_us_per_op", ratio(a.leaderSelf/1e3, ops))
	m.set("rsm.follower_step_us_per_op", ratio(a.followerSelf/1e3/float64(replicas-1), ops))
	m.set("rsm.leader_busy_share", ratio(a.leaderBusy, a.wall))
}
