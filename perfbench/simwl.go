package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mpgraph/internal/core"
	"mpgraph/internal/experiments"
	"mpgraph/internal/prefetch"
	"mpgraph/internal/sim"
	"mpgraph/internal/trace"
)

const (
	// workers is the sweep's worker pool and the serve workloads' client
	// count: the benchmark host has two vCPUs.
	workers = 2
	// simFeed is the size, in prefetcher events, of one timed feed in the
	// sweep workloads, as in the daemon's 64-event feeds. Feeds of 10
	// events made each prefetcher's median feed jump by a third between
	// runs; reading the thread CPU clock every 10 events also weighed on
	// classic-sim's cheap events.
	simFeed = 64
	// nominalGHz is the simulator's core clock: sim.DefaultConfig's
	// latencies are cycles at 4 GHz (DRAMLatency 150 = 3 x 12.5 ns).
	nominalGHz = 4.0
	// fig14Cycles is the inference latency the paper's Fig. 14 assumes on
	// the critical path (core.Options.LatencyCycles in that figure).
	fig14Cycles = 200
)

// simSpec describes one sweep workload: the pipeline configuration, how
// often set-up is repeated, and which prefetchers one sweep set simulates.
type simSpec struct {
	opt    experiments.Options
	wl     experiments.Workload
	setups int
	// windows, when positive, simulates that many windows of window test
	// accesses, one at a place drawn from windowSeed in each of as many
	// equal strata of the test slice, instead of the Runner's test window.
	windows, window int
	windowSeed      int64
	// train makes set-up train the model suite from scratch.
	train bool
	// headline names the prefetcher whose accuracy and coverage are
	// reported; empty pools every prefetcher but "none".
	headline string
	newSet   func(r *experiments.Runner, w experiments.Workload) ([]sim.Prefetcher, error)
}

// offlineSweepSpec is the Figs. 10-12 comparison on gpop/pr/rmat at the
// shipped small scale and seed, with one training epoch over 600 samples.
// The sweep cycles through sixteen 2500-access windows, one in each
// sixteenth of the test slice at a seeded place, so that set-up plus a
// cycle fits one run. Cost per event differs by a third between windows:
// with one window per run, or four, the feed figures followed the seed.
// Nor does the seed retrain: MPGraph's per-call cost differed 2.5x between
// models trained at different seeds.
func offlineSweepSpec(seed int64) simSpec {
	opt := experiments.DefaultOptions()
	opt.Workers = workers
	opt.Epochs = 1
	opt.TrainSamples = 600
	opt.MaxTestAccesses = 2_500
	return simSpec{
		opt:        opt,
		wl:         experiments.Workload{Framework: "gpop", App: "pr", Dataset: "rmat"},
		setups:     1,
		train:      true,
		windows:    16,
		window:     opt.MaxTestAccesses,
		windowSeed: seed,
		headline:   "mpgraph",
		newSet:     (*experiments.Runner).Prefetchers,
	}
}

// classicSimSpec simulates the whole test slice of powergraph/pr/rmat at
// 2^14 vertices with the classic prefetchers: no training, no inference.
func classicSimSpec(seed int64) simSpec {
	opt := experiments.DefaultOptions()
	opt.Seed = seed
	opt.Workers = workers
	opt.GraphScale = 14
	opt.TraceIterations = 3
	opt.MaxTestAccesses = 1 << 30
	return simSpec{
		opt:    opt,
		wl:     experiments.Workload{Framework: "powergraph", App: "pr", Dataset: "rmat"},
		setups: 3,
		newSet: func(*experiments.Runner, experiments.Workload) ([]sim.Prefetcher, error) {
			return []sim.Prefetcher{
				sim.NoPrefetcher(),
				prefetch.NewBO(prefetch.DefaultBOConfig()),
				prefetch.NewISB(prefetch.DefaultISBConfig()),
				prefetch.NewSMS(prefetch.DefaultSMSConfig()),
				prefetch.NewVLDP(prefetch.DefaultVLDPConfig()),
				prefetch.NewDomino(prefetch.DefaultDominoConfig()),
				prefetch.NewIMP(prefetch.DefaultIMPConfig()),
				prefetch.NewMarkov(prefetch.DefaultMarkovConfig()),
			}, nil
		},
	}
}

// simEnv is a set-up pipeline: the runner with its cached artifacts.
type simEnv struct {
	spec simSpec
	r    *experiments.Runner
	d    *experiments.WorkloadData
	// raws are the simulated access windows and baselines their
	// no-prefetch runs.
	raws      [][]trace.Access
	baselines []sim.Metrics
	// setupCPU is the process CPU time set-up took.
	setupCPU time.Duration
	// cal is sampled by each worker before each simulation.
	cal *calibration
}

// setupSim builds the graph, the trace and its LLC captures and, when the
// spec trains, the model suite — each stage a span under bench.setup.
func setupSim(spec simSpec, tr *tracer) (*simEnv, error) {
	r := experiments.NewRunner(spec.opt)
	root := tr.begin("bench.setup", -1, 0)
	cpu0 := cpuTime(processClock)
	id := tr.begin("graph.generate", root, 0)
	if _, err := r.Graph(spec.wl.Dataset); err != nil {
		return nil, err
	}
	tr.end(id)
	id = tr.begin("frameworks.trace", root, 0)
	d, err := r.Data(spec.wl)
	if err != nil {
		return nil, err
	}
	tr.end(id)
	if spec.train {
		id = tr.begin("models.suite", root, 0)
		if _, err := r.Suite(spec.wl); err != nil {
			return nil, err
		}
		tr.end(id)
	}
	setupCPU := cpuTime(processClock) - cpu0
	tr.end(root)
	env := &simEnv{spec: spec, r: r, d: d, setupCPU: setupCPU}
	if spec.windows == 0 {
		env.raws, env.baselines = [][]trace.Access{d.TestRaw}, []sim.Metrics{d.BaselineMetrics}
		return env, nil
	}
	_, trainEnd, err := d.Trace.Iteration(0)
	if err != nil {
		return nil, err
	}
	test := d.Trace.Accesses[trainEnd:]
	stratum := len(test) / spec.windows
	for k := 0; k < spec.windows; k++ {
		off := k*stratum + seededOffset(spec.windowSeed, k, stratum, spec.window)
		raw := test[off : off+spec.window]
		eng, err := sim.NewEngine(r.Opt.SimConfig(), nil)
		if err != nil {
			return nil, err
		}
		env.raws = append(env.raws, raw)
		env.baselines = append(env.baselines, eng.Run(raw))
	}
	return env, nil
}

// simSet is one sweep set: a fresh instance of every prefetcher. In a traced
// pass each is wrapped in a timedPrefetcher, and MPGraph additionally gets
// one under its guard so its bare Operate calls are timed.
type simSet struct {
	pfs    []sim.Prefetcher
	guards []*prefetch.Guarded // per prefetcher, its guard (nil if none)
	outer  []*callStats        // traced: per prefetcher, its Operate calls
	core   []*callStats        // traced: MPGraph's bare Operate calls
}

func (e *simEnv) newSet(traced bool) (*simSet, error) {
	pfs, err := e.spec.newSet(e.r, e.spec.wl)
	if err != nil {
		return nil, err
	}
	s := &simSet{pfs: pfs, guards: make([]*prefetch.Guarded, len(pfs))}
	for i, pf := range pfs {
		if traced && pf.Name() == "mpgraph" {
			// The same assembly as Runner.Prefetchers' guarded MPGraph, with
			// a timer between the guard and the model. The traced pass's
			// metrics are checked against the untraced pass's.
			mp, err := e.r.MPGraph(e.spec.wl, core.DefaultOptions())
			if err != nil {
				return nil, err
			}
			inner := &callStats{keep: true}
			s.core = append(s.core, inner)
			pf = prefetch.NewGuarded(newTimedPrefetcher(mp, inner), prefetch.NewBO(prefetch.DefaultBOConfig()), prefetch.GuardConfig{}, e.r.Events)
		}
		s.guards[i], _ = pf.(*prefetch.Guarded)
		if traced {
			outer := &callStats{}
			s.outer = append(s.outer, outer)
			pf = newTimedPrefetcher(pf, outer)
		}
		s.pfs[i] = pf
	}
	return s, nil
}

// simOp is one simulation: one prefetcher over one access window.
type simOp struct {
	index   int
	name    string
	metrics sim.Metrics
	dur     time.Duration // wall time of Engine.Run
	cpu     time.Duration // worker-thread CPU time of Engine.Run
	// feeds and feedsWall are the CPU and wall time of every feed of
	// consecutive prefetcher events.
	feeds       []time.Duration
	feedsWall   []time.Duration
	operate     time.Duration // traced: time inside Operate
	calls       int64
	quarantined bool // the prefetcher's guard benched it
}

// passResult is one measured pass over the sweep. Simulation i runs
// prefetcher i%n of set i/n over window (i/n)%windows; a cycle is the
// first n*windows simulations, one per (window, prefetcher).
type passResult struct {
	ops      []simOp
	sets     []*simSet
	wall     time.Duration
	n, cycle int
}

// pass runs simulations on the worker pool, one whole cycle first and then
// further sets until the deadline (or exactly limit simulations when limit
// is positive). Each worker takes the next simulation of the sequence.
func (e *simEnv) pass(deadline time.Time, limit int, tr *tracer) (*passResult, error) {
	traced := tr != nil
	first, err := e.newSet(traced)
	if err != nil {
		return nil, err
	}
	n := len(first.pfs)
	cycle := n * len(e.raws)
	var (
		mu    sync.Mutex
		sets  = []*simSet{first}
		ops   []simOp
		errs  []error
		next  atomic.Int64
		wg    sync.WaitGroup
		phase = tr.begin("bench.measure", -1, 0)
	)
	setFor := func(k int) (*simSet, error) {
		mu.Lock()
		defer mu.Unlock()
		for len(sets) <= k {
			s, err := e.newSet(traced)
			if err != nil {
				return nil, err
			}
			sets = append(sets, s)
		}
		return sets[k], nil
	}
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if limit > 0 && i >= limit || limit <= 0 && i >= cycle && time.Now().After(deadline) {
					return
				}
				set, err := setFor(i / n)
				if e.cal != nil {
					e.cal.sample()
				}
				if err == nil {
					var op simOp
					op, err = e.simulate(set, i, n, tr, phase)
					// Only the simulating worker touches this slot; dropping
					// the finished prefetcher keeps memory to the sims in
					// flight.
					set.pfs[i%n], set.guards[i%n] = nil, nil
					mu.Lock()
					ops = append(ops, op)
					mu.Unlock()
				}
				if err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	tr.end(phase)
	if len(errs) > 0 {
		return nil, errs[0]
	}
	sort.Slice(ops, func(a, b int) bool { return ops[a].index < ops[b].index })
	return &passResult{ops: ops, sets: sets, wall: wall, n: n, cycle: cycle}, nil
}

// simulate runs simulation i (prefetcher i%n of set i/n) over window
// (i/n)%windows. The engine's LLC recorder, which sees every prefetcher event just
// before Operate, reads the worker thread's CPU clock and the wall clock
// every simFeed events; the goroutine stays on its thread meanwhile.
func (e *simEnv) simulate(set *simSet, i, n int, tr *tracer, parent int) (simOp, error) {
	pf := set.pfs[i%n]
	op := simOp{index: i, name: pf.Name()}
	eng, err := sim.NewEngine(e.r.Opt.SimConfig(), pf)
	if err != nil {
		return op, err
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	events := 0
	var last time.Duration
	var lastWall time.Time
	op.feeds = make([]time.Duration, 0, 1024)
	op.feedsWall = make([]time.Duration, 0, 1024)
	eng.Recorder = func(trace.Access, bool) {
		if events%simFeed == 0 {
			now, nowWall := cpuTime(threadClock), time.Now()
			if events > 0 {
				op.feeds = append(op.feeds, now-last)
				op.feedsWall = append(op.feedsWall, nowWall.Sub(lastWall))
			}
			last, lastWall = now, nowWall
		}
		events++
	}
	if b, ok := pf.(interface {
		JoinBatch()
		LeaveBatch()
	}); ok {
		b.JoinBatch()
		defer b.LeaveBatch()
	}
	id := tr.begin("sim.run", parent, int64(i))
	start, cpu0 := time.Now(), cpuTime(threadClock)
	op.metrics = eng.Run(e.raws[i/n%len(e.raws)])
	op.dur, op.cpu = time.Since(start), cpuTime(threadClock)-cpu0
	tr.end(id)
	if g := set.guards[i%n]; g != nil {
		op.quarantined = g.Quarantined()
	}
	if set.outer != nil {
		st := set.outer[i%n]
		op.operate, op.calls = st.busy, st.calls
	}
	return op, nil
}

// firstCycle returns the metrics of the pass's first cycle, in order.
func (p *passResult) firstCycle() []sim.Metrics {
	out := make([]sim.Metrics, p.cycle)
	for _, op := range p.ops[:p.cycle] {
		out[op.index] = op.metrics
	}
	return out
}

// mismatches counts simulations whose metrics differ from the first
// cycle's run of the same prefetcher over the same window.
func (p *passResult) mismatches() int {
	ref := p.firstCycle()
	bad := 0
	for _, op := range p.ops[p.cycle:] {
		if op.metrics != ref[op.index%p.cycle] {
			bad++
			fmt.Fprintf(os.Stderr, "perfbench: %s simulation %d differs from its first run\n", op.name, op.index)
		}
	}
	return bad
}

// feedPercentiles returns the feed times at percentiles lo and hi, each the
// mean over the set's prefetchers of that prefetcher's own percentile:
// their costs differ a thousandfold, so pooled percentiles would fall
// between them and jump with the mix of simulations a run completes.
func (p *passResult) feedPercentiles(wall bool, lo, hi float64) (pLo, pHi time.Duration) {
	byIdx := make([][]time.Duration, p.n)
	for _, op := range p.ops {
		feeds := op.feeds
		if wall {
			feeds = op.feedsWall
		}
		byIdx[op.index%p.n] = append(byIdx[op.index%p.n], feeds...)
	}
	for _, feeds := range byIdx {
		pLo += percentile(feeds, lo) / time.Duration(p.n)
		pHi += percentile(feeds, hi) / time.Duration(p.n)
	}
	return pLo, pHi
}

// eventsPerCPUSec is the sweep's throughput: one cycle's prefetcher events
// (LLC accesses handed to Operate) over the sum of the median worker-thread
// CPU time of each of its simulations.
func (p *passResult) eventsPerCPUSec() float64 {
	byIdx := make([][]time.Duration, p.cycle)
	for _, op := range p.ops {
		byIdx[op.index%p.cycle] = append(byIdx[op.index%p.cycle], op.cpu)
	}
	var events float64
	var cpu time.Duration
	for i, m := range p.firstCycle() {
		events += float64(m.LLCHits + m.LLCMisses)
		cpu += median(byIdx[i])
	}
	return events / cpu.Seconds()
}

// eventsPerWallSec is the pass's wall-clock throughput over every
// simulation's events.
func (p *passResult) eventsPerWallSec() float64 {
	var events float64
	for _, op := range p.ops {
		events += float64(op.metrics.LLCHits + op.metrics.LLCMisses)
	}
	return events / p.wall.Seconds()
}

// digest fingerprints a cycle's simulated metrics and the baselines, so a
// later change can show it left every simulated result unchanged.
func digest(ms, baselines []sim.Metrics) string {
	b, err := json.Marshal(struct {
		Baselines []sim.Metrics
		Sweep     []sim.Metrics
	}{baselines, ms})
	if err != nil {
		panic(err) // sim.Metrics holds only strings and integers
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// quality returns accuracy and coverage in percent, pooled over the
// windows: the headline prefetcher's, or pooled over every prefetcher that
// issues prefetches.
func quality(ms []sim.Metrics, headline string) (acc, cov float64) {
	var m sim.Metrics
	for _, x := range ms {
		if headline != "" && x.Prefetcher != headline || headline == "" && x.Prefetcher == "none" {
			continue
		}
		m.PrefetchesIssued += x.PrefetchesIssued
		m.UsefulPrefetches += x.UsefulPrefetches
		m.LLCMisses += x.LLCMisses
	}
	return 100 * m.Accuracy(), 100 * m.Coverage()
}

// runSim is a sweep workload: timed set-ups, an untraced measured pass with
// its output checks, and in a traced run a second, traced pass over the
// same simulations whose metrics must equal the first pass's.
func runSim(spec simSpec, rc runConfig) (*outcome, error) {
	var env *simEnv
	var setups []time.Duration
	for i := 0; i < spec.setups; i++ {
		env = nil
		runtime.GC()
		rc.cal.sample()
		var tr *tracer
		if i == spec.setups-1 {
			tr = rc.tr
		}
		var err error
		if env, err = setupSim(spec, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, env.setupCPU)
	}

	env.cal = rc.cal
	settleMemory()
	measure := rc.measure
	if rc.tr != nil {
		measure /= 2
	}
	plain, err := env.pass(time.Now().Add(measure), 0, nil)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	ref := plain.firstCycle()
	out := &outcome{attempted: len(plain.ops), failed: plain.mismatches()}
	fmt.Printf("digest %s seed=%d sha256=%s\n", rc.workload, rc.seed, digest(ref, env.baselines))
	for i, m := range ref {
		fmt.Fprintf(os.Stderr, "perfbench: window %d %v ipc_gain=%.4f\n", i/plain.n, m, m.IPCImprovement(env.baselines[i/plain.n]))
	}
	feeds := 0
	for _, op := range plain.ops {
		feeds += len(op.feeds)
	}
	eps := plain.eventsPerCPUSec()
	fmt.Fprintf(os.Stderr, "perfbench: %d simulations in %v, %d feeds of %d events\n",
		len(plain.ops), plain.wall.Round(time.Millisecond), feeds, simFeed)
	p50, p95 := plain.feedPercentiles(false, 50, 95)
	wallP50, wallP99 := plain.feedPercentiles(true, 50, 99)
	wallMetrics := map[string]float64{
		"bench.events_per_wall_s": plain.eventsPerWallSec(),
		"bench.feed_wall_p50_ms":  ms(wallP50),
		"bench.feed_wall_p99_ms":  ms(wallP99),
	}

	if rc.tr == nil {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		acc, cov := quality(ref, spec.headline)
		out.metrics = map[string]float64{
			"setup_s":          median(setups).Seconds(),
			"peak_rss_mb":      rss,
			"events_per_cpu_s": eps,
			"feed_cpu_p50_ms":  ms(p50),
			"feed_cpu_p95_ms":  ms(p95),
			"accuracy_pct":     acc,
			"coverage_pct":     cov,
		}
		return out, nil
	}

	traced, err := env.pass(time.Time{}, len(plain.ops), rc.tr)
	if err != nil {
		return nil, fmt.Errorf("traced sweep: %w", err)
	}
	out.attempted += len(traced.ops)
	out.failed += traced.mismatches()
	if digest(traced.firstCycle(), env.baselines) != digest(ref, env.baselines) {
		fmt.Fprintln(os.Stderr, "perfbench: traced simulations differ from untraced ones")
		out.failed += traced.cycle
	}
	out.metrics = env.layers(traced, ref, eps)
	for k, v := range wallMetrics {
		out.metrics[k] = v
	}
	return out, nil
}

// layers derives the per-layer metrics of a traced pass.
func (e *simEnv) layers(p *passResult, ref []sim.Metrics, plainEPS float64) map[string]float64 {
	m := map[string]float64{
		"trace.accesses": float64(len(e.d.Trace.Accesses)),
	}
	if e.spec.train {
		if s, err := e.r.Suite(e.spec.wl); err == nil {
			m["models.train_samples"] = float64(len(s.Train.Samples))
		}
	}
	var engine, busy time.Duration
	for _, op := range p.ops {
		engine += op.dur - op.operate
		busy += op.dur
		if op.quarantined {
			m["prefetch.guard_quarantines"]++
		}
		m["prefetch.operate_s."+op.name] += op.operate.Seconds()
		m["prefetch.operate_calls."+op.name] += float64(op.calls)
	}
	m["sim.engine_s"] = engine.Seconds()
	m["experiments.sweep_busy_share"] = 100 * busy.Seconds() / (workers * p.wall.Seconds())
	// Per-prefetcher simulated figures pool the cycle's windows.
	pooled := map[string]*sim.Metrics{}
	var base sim.Metrics
	for i, x := range ref {
		pm := pooled[x.Prefetcher]
		if pm == nil {
			pm = &sim.Metrics{}
			pooled[x.Prefetcher] = pm
		}
		pm.Instructions += x.Instructions
		pm.Cycles += x.Cycles
		pm.UsefulPrefetches += x.UsefulPrefetches
		pm.LatePrefetches += x.LatePrefetches
		pm.PrefetchesDropped += x.PrefetchesDropped
		if i%p.n == 0 {
			b := e.baselines[i/p.n]
			base.Instructions += b.Instructions
			base.Cycles += b.Cycles
		}
	}
	for name, x := range pooled {
		if x.UsefulPrefetches > 0 {
			m["sim.late_share."+name] = 100 * float64(x.LatePrefetches) / float64(x.UsefulPrefetches)
		}
		m["sim.dropped."+name] = float64(x.PrefetchesDropped)
	}
	if x := pooled["mpgraph"]; x != nil {
		m["sim.mpgraph_ipc_gain_pct"] = 100 * x.IPCImprovement(base)
	}
	var calls []time.Duration
	for _, s := range p.sets {
		for _, c := range s.core {
			calls = append(calls, c.perCall...)
			m["core.transitions"] += float64(c.transitions)
		}
	}
	addCoreLatency(m, calls)
	m["trace.overhead_pct"] = 100 * (plainEPS/p.eventsPerCPUSec() - 1)
	return m
}

// addCoreLatency reports MPGraph's per-call Operate latency, and its p50
// in simulator cycles next to the latency Fig. 14 assumes.
func addCoreLatency(m map[string]float64, calls []time.Duration) {
	if len(calls) == 0 {
		return
	}
	p50 := percentile(calls, 50)
	m["core.operate_p50_us"] = us(p50)
	m["core.operate_p99_us"] = us(percentile(calls, 99))
	cycles := us(p50) * 1000 * nominalGHz
	m["core.operate_cycles_p50"] = cycles
	m["core.cycles_over_fig14"] = cycles / fig14Cycles
	fmt.Fprintf(os.Stderr, "perfbench: MPGraph Operate p50 %.1f us = %.3g cycles at %.0f GHz, %.0fx the %d cycles Fig. 14 assumes (%d calls)\n",
		us(p50), cycles, nominalGHz, cycles/fig14Cycles, fig14Cycles, len(calls))
}
