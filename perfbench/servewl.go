package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mpgraph/internal/core"
	"mpgraph/internal/experiments"
	"mpgraph/internal/serve"
	"mpgraph/internal/sim"
	"mpgraph/internal/trace"
)

// serveWorkload is the suite the daemon serves, as mpgraph-serve's default.
var serveWorkload = experiments.Workload{Framework: "gpop", App: "pr", Dataset: "rmat"}

const (
	// restarts is how many times set-up (a daemon restart) is timed.
	restarts = 5
	// minFeeds keeps a serve run going past its deadline until the feed
	// latency p99 (bench.feed_wall_p99_ms) has ten samples beyond it.
	minFeeds = 1000
	// scoreWindow is how many later events of its session a prediction
	// may be used by to count as accurate.
	scoreWindow = 256
	// calibrateEvery is how many feeds a client sends between calibration
	// samples.
	calibrateEvery = 25
	// Request headers that tie the handler's span to the client's.
	reqHeader    = "X-Perfbench-Req"
	parentHeader = "X-Perfbench-Span"
)

// serveSpec is one serve workload's traffic shape.
type serveSpec struct {
	maxSessions   int
	sessionEvents int
	feedEvents    int
}

// serveStreamSpec: long sessions that are never evicted. A run serves about
// 30 of them; with 4096-event sessions, the 16 a run served made the
// online accuracy follow the seed.
var serveStreamSpec = serveSpec{maxSessions: 1024, sessionEvents: 2048, feedEvents: 64}

// serveChurnSpec: one short feed per session against an 8-entry table, so
// every feed admits a session and evicts an idle one.
var serveChurnSpec = serveSpec{maxSessions: 8, sessionEvents: 32, feedEvents: 32}

// serveOptions is mpgraph-serve's configuration (small scale, batch 2,
// checkpoints with resume). The checkpoint directory is keyed by a hash of
// the sources, so a checkpoint is only ever resumed by the code that
// trained it.
func serveOptions(root string) (experiments.Options, error) {
	hash, err := sourceHash(root)
	if err != nil {
		return experiments.Options{}, err
	}
	opt := experiments.DefaultOptions()
	opt.Workers = workers
	opt.Batch = 2
	opt.CheckpointDir = filepath.Join(root, ".bench_build", "perfbench", "ckpt-"+hash)
	opt.Resume = true
	return opt, nil
}

// sourceHash fingerprints every Go source and module file of the program
// under root, skipping hidden directories (build outputs, VCS metadata) and
// the benchmark's own directory.
func sourceHash(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") && d.Name() != "go.mod" && d.Name() != "go.sum" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("hashing sources: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// prime trains and checkpoints the served suite once per source tree; the
// first serve run in a checkout pays for it, untimed and before the peak
// RSS is measured.
func prime(opt experiments.Options) error {
	marker := filepath.Join(opt.CheckpointDir, "primed")
	if _, err := os.Stat(marker); err == nil {
		return nil
	}
	fmt.Fprintf(os.Stderr, "perfbench: training the served suite into %s\n", opt.CheckpointDir)
	if _, err := experiments.NewRunner(opt).Suite(serveWorkload); err != nil {
		return fmt.Errorf("priming the checkpoint: %w", err)
	}
	return os.WriteFile(marker, []byte("ok\n"), 0o644)
}

// serveConfig is the daemon's configuration, as mpgraph-serve assembles it.
func serveConfig(r *experiments.Runner, spec serveSpec) serve.Config {
	return serve.Config{
		MaxSessions: spec.maxSessions,
		NewPrimary: func(sched core.ModelScheduler) (sim.Prefetcher, error) {
			copt := core.DefaultOptions()
			copt.Scheduler = sched
			return r.MPGraph(serveWorkload, copt)
		},
		NewModelSession: r.NewModelSession,
		Events:          r.Events,
	}
}

// serveProbe is the traced daemon's instrumentation: a decorator on the
// session's primary prefetcher and on its batch-tier handle, and a
// middleware around the HTTP handler.
type serveProbe struct {
	tr         *tracer
	operate    callStats // every session's MPGraph Operate calls
	batch      callStats // every session's batch-tier model calls
	mu         sync.Mutex
	handler    []time.Duration
	newPrimary time.Duration
}

func newServeProbe(tr *tracer) *serveProbe {
	p := &serveProbe{tr: tr}
	p.operate.keep = true
	return p
}

// wrap decorates cfg's session constructors.
func (p *serveProbe) wrap(cfg *serve.Config) {
	newPrimary, newSession := cfg.NewPrimary, cfg.NewModelSession
	cfg.NewPrimary = func(sched core.ModelScheduler) (sim.Prefetcher, error) {
		start := time.Now()
		pf, err := newPrimary(sched)
		d := time.Since(start)
		if err != nil {
			return nil, err
		}
		p.mu.Lock()
		p.newPrimary += d
		p.mu.Unlock()
		return newTimedPrefetcher(pf, &p.operate), nil
	}
	cfg.NewModelSession = func() core.ModelScheduler {
		inner := newSession()
		if inner == nil {
			return nil
		}
		return &timedScheduler{inner: inner, stats: &p.batch}
	}
}

// middleware times every feed request inside the handler, as a child span
// of the client's feed span.
func (p *serveProbe) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			h.ServeHTTP(w, r)
			return
		}
		req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		parent, err := strconv.Atoi(r.Header.Get(parentHeader))
		if err != nil {
			parent = -1
		}
		id := p.tr.begin("serve.handler", parent, req)
		h.ServeHTTP(w, r)
		d := p.tr.end(id)
		p.mu.Lock()
		p.handler = append(p.handler, d)
		p.mu.Unlock()
	})
}

// daemon is an in-process mpgraph-serve on a loopback listener.
type daemon struct {
	r      *experiments.Runner
	srv    *serve.Server
	hs     *http.Server
	url    string
	served chan error
	// setupCPU is the process CPU time the restart took.
	setupCPU time.Duration

	mu      sync.Mutex
	feedCPU []time.Duration // handler thread CPU time of every feed
}

// meterCPU wraps the handler so that every feed request runs on one OS
// thread and records the CPU time that thread spent on it: decoding,
// admission, the session's model calls (and any fused batch round this
// request ran for both sessions), and encoding.
func (d *daemon) meterCPU(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			h.ServeHTTP(w, r)
			return
		}
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		cpu0 := cpuTime(threadClock)
		h.ServeHTTP(w, r)
		cpu := cpuTime(threadClock) - cpu0
		d.mu.Lock()
		d.feedCPU = append(d.feedCPU, cpu)
		d.mu.Unlock()
	})
}

// startDaemon is one daemon restart: resume the suite from its checkpoint,
// build the server and wait until it answers its liveness probe.
func startDaemon(opt experiments.Options, spec serveSpec, probe *serveProbe, tr *tracer) (*daemon, error) {
	cpu0 := cpuTime(processClock)
	root := tr.begin("bench.setup", -1, 0)
	r := experiments.NewRunner(opt)
	id := tr.begin("frameworks.trace", root, 0)
	if _, err := r.Data(serveWorkload); err != nil {
		return nil, err
	}
	tr.end(id)
	id = tr.begin("resilience.resume", root, 0)
	if _, err := r.Suite(serveWorkload); err != nil {
		return nil, err
	}
	tr.end(id)

	id = tr.begin("serve.start", root, 0)
	cfg := serveConfig(r, spec)
	if probe != nil {
		probe.wrap(&cfg)
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		r: r, srv: srv,
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	handler := d.meterCPU(serve.NewHandler(srv))
	if probe != nil {
		handler = probe.middleware(handler)
	}
	d.hs = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	go func() { d.served <- d.hs.Serve(ln) }()
	if err := d.healthy(); err != nil {
		return nil, errors.Join(err, d.stop())
	}
	tr.end(id)
	d.setupCPU = cpuTime(processClock) - cpu0
	tr.end(root)
	return d, nil
}

// healthy waits for the liveness probe.
func (d *daemon) healthy() error {
	c := &http.Client{Timeout: 10 * time.Second}
	defer c.CloseIdleConnections()
	resp, err := c.Get(d.url + "/healthz")
	if err != nil {
		return fmt.Errorf("liveness probe: %w", err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return fmt.Errorf("liveness probe: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("liveness probe: status %d", resp.StatusCode)
	}
	return nil
}

// stop shuts the HTTP server down, waits for its serve loop to return and
// drains the session table.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, d.srv.Shutdown(ctx))
}

// seededOffset is where window k of size elements starts in a stream of n
// elements: a pure function of (seed, k), so a serve session is the same
// whichever client sends it and whenever.
func seededOffset(seed int64, k, n, size int) int {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(k)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return int(x % uint64(n-size+1))
}

// sessionEvents returns session k's events: a window of the LLC stream.
func sessionEvents(llc []trace.Access, seed int64, k, size int) []serve.Event {
	off := seededOffset(seed, k, len(llc), size)
	evs := make([]serve.Event, size)
	for i, a := range llc[off : off+size] {
		evs[i] = serve.Event{Addr: a.Addr, PC: a.PC, Core: a.Core}
	}
	return evs
}

// clientSession is one session as a client sees it.
type clientSession struct {
	k      int
	id     string
	events []serve.Event
	fed    int          // events sent
	feeds  int          // feeds sent
	failed int          // feeds that failed
	body   bytes.Buffer // the concatenated prediction streams
}

// clientRun is one pass of closed-loop clients.
type clientRun struct {
	sessions []*clientSession // by k
	lat      []time.Duration  // every feed's client-observed latency
	events   int              // events of successful feeds
	wall     time.Duration
	cpu      time.Duration // process CPU time of the pass
	plan     [][]int       // per client, the feeds sent to each of its sessions
}

// drive runs the closed-loop clients. Client c sends sessions c, c+2, ...
// one feed at a time. Without a plan a client stops at the first feed due
// after the deadline once minFeeds feeds have completed; with a plan each
// client sends exactly the feeds it lists.
func drive(url string, llc []trace.Access, seed int64, spec serveSpec, deadline time.Time, plan [][]int, tr *tracer, cal *calibration) (*clientRun, error) {
	transport := &http.Transport{MaxIdleConnsPerHost: workers, DisableCompression: true}
	client := &http.Client{Transport: transport, Timeout: 60 * time.Second}
	defer transport.CloseIdleConnections()

	run := &clientRun{plan: make([][]int, workers)}
	var (
		mu     sync.Mutex
		done   atomic.Int64
		nextID atomic.Int64
		wg     sync.WaitGroup
		errs   []error
	)
	phase := tr.begin("bench.measure", -1, 0)
	start := time.Now()
	cpu0 := cpuTime(processClock)
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat []time.Duration
			var sessions []*clientSession
			events := 0
			for j := 0; ; j++ {
				if plan != nil && j >= len(plan[c]) {
					break
				}
				s := &clientSession{k: c + j*workers}
				s.id = fmt.Sprintf("s%06d", s.k)
				s.events = sessionEvents(llc, seed, s.k, spec.sessionEvents)
				stop := false
				for s.fed < len(s.events) {
					if plan != nil && s.feeds >= plan[c][j] {
						break
					}
					if plan == nil && done.Load() >= minFeeds && time.Now().After(deadline) {
						stop = true
						break
					}
					if cal != nil && len(lat)%calibrateEvery == 0 {
						cal.sample()
					}
					chunk := s.events[s.fed:min(s.fed+spec.feedEvents, len(s.events))]
					d, ok, err := feed(client, url, s, chunk, nextID.Add(1), phase, tr)
					if err != nil {
						mu.Lock()
						errs = append(errs, err)
						mu.Unlock()
						stop = true
						break
					}
					lat = append(lat, d)
					s.fed += len(chunk)
					s.feeds++
					done.Add(1)
					if ok {
						events += len(chunk)
					} else {
						s.failed++
					}
				}
				if s.feeds > 0 {
					sessions = append(sessions, s)
					run.plan[c] = append(run.plan[c], s.feeds)
				}
				if stop {
					break
				}
			}
			mu.Lock()
			run.sessions = append(run.sessions, sessions...)
			run.lat = append(run.lat, lat...)
			run.events += events
			mu.Unlock()
		}()
	}
	wg.Wait()
	run.wall = time.Since(start)
	run.cpu = cpuTime(processClock) - cpu0
	tr.end(phase)
	if len(errs) > 0 {
		return nil, errs[0]
	}
	sort.Slice(run.sessions, func(a, b int) bool { return run.sessions[a].k < run.sessions[b].k })
	return run, nil
}

// feed posts one chunk of s's events and appends the prediction stream to
// s.body. ok is false for a non-200 status or a trailing error line.
func feed(client *http.Client, url string, s *clientSession, chunk []serve.Event, req int64, parent int, tr *tracer) (time.Duration, bool, error) {
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for _, ev := range chunk {
		if err := enc.Encode(ev); err != nil {
			return 0, false, err
		}
	}
	hreq, err := http.NewRequest(http.MethodPost, url+"/v1/sessions/"+s.id+"/events", &body)
	if err != nil {
		return 0, false, err
	}
	id := tr.begin("client.feed", parent, req)
	hreq.Header.Set(reqHeader, strconv.FormatInt(req, 10))
	hreq.Header.Set(parentHeader, strconv.Itoa(id))
	start := time.Now()
	resp, err := client.Do(hreq)
	if err != nil {
		return 0, false, fmt.Errorf("feed %s: %w", s.id, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	tr.end(id)
	if err != nil {
		return 0, false, fmt.Errorf("feed %s: %w", s.id, err)
	}
	ok := resp.StatusCode == http.StatusOK && !bytes.Contains(data, []byte(`{"error":`))
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: feed to %s failed: %d %s\n", s.id, resp.StatusCode, bytes.TrimSpace(data))
	}
	s.body.Write(data)
	return d, ok, nil
}

// verify replays every cleanly fed session through a fresh server with
// serve.Replay and counts the feeds of sessions whose HTTP prediction
// stream differs from the replay's.
func verify(r *experiments.Runner, spec serveSpec, run *clientRun) (int, error) {
	var in bytes.Buffer
	enc := json.NewEncoder(&in)
	var checked []*clientSession
	for _, s := range run.sessions {
		if s.failed > 0 {
			continue
		}
		checked = append(checked, s)
		for _, ev := range s.events[:s.fed] {
			if err := enc.Encode(serve.ReplayRecord{Session: s.id, Addr: ev.Addr, PC: ev.PC, Core: ev.Core}); err != nil {
				return 0, err
			}
		}
	}
	srv, err := serve.New(serveConfig(r, spec))
	if err != nil {
		return 0, err
	}
	var out bytes.Buffer
	ctx := context.Background()
	if err := serve.Replay(ctx, srv, &in, &out, workers); err != nil {
		return 0, fmt.Errorf("replay: %w", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		return 0, err
	}
	got := map[string]*bytes.Buffer{}
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		var p serve.Prediction
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			return 0, fmt.Errorf("replay log: %w", err)
		}
		b := got[p.Session]
		if b == nil {
			b = &bytes.Buffer{}
			got[p.Session] = b
		}
		b.Write(sc.Bytes())
		b.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	bad := 0
	for _, s := range checked {
		var want []byte
		if b := got[s.id]; b != nil {
			want = b.Bytes()
		}
		if !bytes.Equal(want, s.body.Bytes()) {
			fmt.Fprintf(os.Stderr, "perfbench: session %s: HTTP predictions differ from serve.Replay\n", s.id)
			bad += s.feeds
		}
	}
	return bad, nil
}

// score rates a session's predictions against its own later events: a
// predicted block is accurate if one of the next scoreWindow events demands
// it, and an event is covered if a prediction among the scoreWindow events
// before it named its block.
func score(events []serve.Event, body []byte) (accurate, predicted, covered int, err error) {
	lastPredicted := map[uint64]int{} // block -> seq of its latest prediction
	occurs := map[uint64][]int{}      // block -> seqs (1-based) demanding it
	for i, ev := range events {
		b := trace.Block(ev.Addr)
		occurs[b] = append(occurs[b], i+1)
	}
	byseq := map[uint64][]uint64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		var p serve.Prediction
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			return 0, 0, 0, fmt.Errorf("prediction stream: %w", err)
		}
		byseq[p.Seq] = p.Blocks
	}
	if err := sc.Err(); err != nil {
		return 0, 0, 0, err
	}
	for i, ev := range events {
		seq := i + 1
		b := trace.Block(ev.Addr)
		if at, ok := lastPredicted[b]; ok && seq-at <= scoreWindow {
			covered++
		}
		for _, pb := range byseq[uint64(seq)] {
			predicted++
			occ := occurs[pb]
			j := sort.SearchInts(occ, seq+1)
			if j < len(occ) && occ[j]-seq <= scoreWindow {
				accurate++
			}
			lastPredicted[pb] = seq
		}
	}
	return accurate, predicted, covered, nil
}

// runServe is a serve workload: timed daemon restarts, a closed-loop pass
// with its latency and throughput, the replay check and prediction scoring;
// in a traced run a second, traced daemon serves the same feeds, whose
// prediction streams must equal the first pass's byte for byte.
func runServe(spec serveSpec, rc runConfig) (*outcome, error) {
	opt, err := serveOptions(rc.root)
	if err != nil {
		return nil, err
	}
	if err := prime(opt); err != nil {
		return nil, err
	}
	var live *daemon
	var setups []time.Duration
	for i := 0; i < restarts; i++ {
		if live != nil {
			if err := live.stop(); err != nil {
				return nil, err
			}
			live = nil
			runtime.GC()
		}
		rc.cal.sample()
		if live, err = startDaemon(opt, spec, nil, nil); err != nil {
			return nil, fmt.Errorf("daemon start: %w", err)
		}
		setups = append(setups, live.setupCPU)
	}
	d, err := live.r.Data(serveWorkload)
	if err != nil {
		return nil, errors.Join(err, live.stop())
	}
	settleMemory()
	measure := rc.measure
	if rc.tr != nil {
		measure /= 2
	}
	run, err := drive(live.url, d.LLCTest, rc.seed, spec, time.Now().Add(measure), nil, nil, rc.cal)
	if serr := live.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	out := &outcome{attempted: len(run.lat)}
	for _, s := range run.sessions {
		out.failed += s.failed
	}
	bad, err := verify(live.r, spec, run)
	if err != nil {
		return nil, err
	}
	out.failed += bad
	eps := float64(run.events) / run.cpu.Seconds()
	fmt.Fprintf(os.Stderr, "perfbench: %d sessions, %d feeds, %d events in %v (%v CPU)\n",
		len(run.sessions), len(run.lat), run.events, run.wall.Round(time.Millisecond), run.cpu.Round(time.Millisecond))
	wallMetrics := map[string]float64{
		"bench.events_per_wall_s": float64(run.events) / run.wall.Seconds(),
		"bench.feed_wall_p50_ms":  ms(percentile(run.lat, 50)),
		"bench.feed_wall_p99_ms":  ms(percentile(run.lat, 99)),
	}

	if rc.tr == nil {
		var acc, pred, cov, events int
		for _, s := range run.sessions {
			a, p, c, err := score(s.events[:s.fed], s.body.Bytes())
			if err != nil {
				return nil, fmt.Errorf("session %s: %w", s.id, err)
			}
			acc, pred, cov, events = acc+a, pred+p, cov+c, events+s.fed
		}
		if pred == 0 || events == 0 {
			return nil, fmt.Errorf("no predictions to score")
		}
		out.metrics = map[string]float64{
			"setup_s":          median(setups).Seconds(),
			"peak_rss_mb":      rss,
			"events_per_cpu_s": eps,
			"feed_cpu_p50_ms":  ms(percentile(live.feedCPU, 50)),
			"feed_cpu_p95_ms":  ms(percentile(live.feedCPU, 95)),
			"accuracy_pct":     100 * float64(acc) / float64(pred),
			"coverage_pct":     100 * float64(cov) / float64(events),
		}
		return out, nil
	}

	probe := newServeProbe(rc.tr)
	traced, err := startDaemon(opt, spec, probe, rc.tr)
	if err != nil {
		return nil, fmt.Errorf("traced daemon start: %w", err)
	}
	tracedRun, err := drive(traced.url, d.LLCTest, rc.seed, spec, time.Time{}, run.plan, rc.tr, nil)
	if serr := traced.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	out.attempted += len(tracedRun.lat)
	for i, s := range tracedRun.sessions {
		out.failed += s.failed
		if i >= len(run.sessions) || !bytes.Equal(s.body.Bytes(), run.sessions[i].body.Bytes()) {
			fmt.Fprintf(os.Stderr, "perfbench: session %s: traced predictions differ from untraced ones\n", s.id)
			out.failed += s.feeds
		}
	}
	out.metrics = probe.layers(traced, tracedRun, eps)
	for k, v := range wallMetrics {
		out.metrics[k] = v
	}
	return out, nil
}

// layers derives the per-layer metrics of the traced daemon.
func (p *serveProbe) layers(d *daemon, run *clientRun, plainEPS float64) map[string]float64 {
	st := d.srv.Stats()
	var handler time.Duration
	for _, h := range p.handler {
		handler += h
	}
	m := map[string]float64{
		"serve.handler_p50_ms":           ms(percentile(p.handler, 50)),
		"serve.handler_p99_ms":           ms(percentile(p.handler, 99)),
		"serve.operate_s":                p.operate.busy.Seconds(),
		"serve.self_s":                   (handler - p.operate.busy).Seconds(),
		"serve.new_primary_s":            p.newPrimary.Seconds(),
		"prefetch.operate_s.mpgraph":     p.operate.busy.Seconds(),
		"prefetch.operate_calls.mpgraph": float64(p.operate.calls),
		"prefetch.batch_calls":           float64(p.batch.calls),
		"prefetch.batch_call_s":          p.batch.busy.Seconds(),
		"core.transitions":               float64(p.operate.transitions),
		"prefetch.guard_quarantines":     float64(st.Degraded),
		"serve.admitted":                 float64(st.Admitted),
		"serve.evicted":                  float64(st.Evicted),
		"serve.rejected":                 float64(st.Rejected),
		"serve.feed_errors":              float64(st.FeedErrors),
		"serve.degraded_sessions":        float64(st.Degraded),
		"trace.overhead_pct":             100 * (plainEPS*run.cpu.Seconds()/float64(run.events) - 1),
	}
	if data, err := d.r.Data(serveWorkload); err == nil {
		m["trace.accesses"] = float64(len(data.Trace.Accesses))
	}
	addCoreLatency(m, p.operate.perCall)
	return m
}
