package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"mpgraph/internal/core"
	"mpgraph/internal/models"
	"mpgraph/internal/sim"
)

// span is one timed call into a layer. Start and End are nanoseconds since
// the tracer was created; Parent is the index of the enclosing span (-1 for
// a root); Req groups the spans of one request (a simulation or a feed).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer keeps spans in memory; write dumps them when the run ends. A nil
// *tracer records nothing, so untraced code paths pay only a nil check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return time.Duration(now - t.spans[id].Start)
}

// selfTimes returns, per span name, the summed duration of its spans minus
// the part covered by their child spans.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		self[s.Name] += time.Duration(s.End - s.Start)
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= time.Duration(s.End - s.Start)
		}
	}
	return self
}

// total returns the summed duration of every span called name.
func (t *tracer) total(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += time.Duration(s.End - s.Start)
		}
	}
	return d
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write dumps the spans as JSONL, followed by one summary line of self
// time per layer.
func (t *tracer) write(path string) error {
	self := t.selfTimes()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	t.mu.Unlock()
	selfNS := map[string]int64{}
	for name, d := range self {
		selfNS[name] = d.Nanoseconds()
	}
	if err := enc.Encode(map[string]any{"self_ns": selfNS}); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// callStats aggregates the calls crossing one layer boundary. Per-call
// Operate is too fine-grained for a span each, so the wrappers below count
// and time at that boundary instead.
type callStats struct {
	mu    sync.Mutex
	calls int64
	busy  time.Duration
	// keep makes perCall collect every call's duration (percentiles).
	keep        bool
	perCall     []time.Duration
	transitions int
}

func (s *callStats) add(d time.Duration) {
	s.mu.Lock()
	s.calls++
	s.busy += d
	if s.keep {
		s.perCall = append(s.perCall, d)
	}
	s.mu.Unlock()
}

// timedPrefetcher counts and times the Operate calls of the prefetcher it
// wraps, and for MPGraph the phase transitions they detect. It forwards
// every optional interface the simulator, the degradation guard and the
// sweep probe for (inference latency, health, batch membership), so a
// wrapped prefetcher simulates exactly like a bare one. Several wrappers
// may share one callStats; read it only after its users have finished.
type timedPrefetcher struct {
	inner sim.Prefetcher
	stats *callStats
	mp    *core.MPGraph
	seen  int // mp.Transitions already added to stats
}

func newTimedPrefetcher(inner sim.Prefetcher, stats *callStats) *timedPrefetcher {
	mp, _ := inner.(*core.MPGraph)
	return &timedPrefetcher{inner: inner, stats: stats, mp: mp}
}

// Name implements sim.Prefetcher.
func (p *timedPrefetcher) Name() string { return p.inner.Name() }

// Operate implements sim.Prefetcher.
func (p *timedPrefetcher) Operate(acc sim.LLCAccess) []uint64 {
	start := time.Now()
	out := p.inner.Operate(acc)
	p.stats.add(time.Since(start))
	if p.mp != nil && p.mp.Transitions != p.seen {
		p.stats.mu.Lock()
		p.stats.transitions += p.mp.Transitions - p.seen
		p.stats.mu.Unlock()
		p.seen = p.mp.Transitions
	}
	return out
}

// InferenceLatencyCycles implements sim.InferenceLatency; 0 (what the
// engine assumes for a prefetcher without it) when the inner one lacks it.
func (p *timedPrefetcher) InferenceLatencyCycles() uint64 {
	if il, ok := p.inner.(sim.InferenceLatency); ok {
		return il.InferenceLatencyCycles()
	}
	return 0
}

// Health implements sim.HealthReporter; nil when the inner one lacks it.
func (p *timedPrefetcher) Health() error {
	if hr, ok := p.inner.(sim.HealthReporter); ok {
		return hr.Health()
	}
	return nil
}

// JoinBatch forwards batch-scheduler registration.
func (p *timedPrefetcher) JoinBatch() {
	if j, ok := p.inner.(interface{ JoinBatch() }); ok {
		j.JoinBatch()
	}
}

// LeaveBatch forwards batch-scheduler deregistration.
func (p *timedPrefetcher) LeaveBatch() {
	if l, ok := p.inner.(interface{ LeaveBatch() }); ok {
		l.LeaveBatch()
	}
}

// timedScheduler counts and times the model calls a session hands to the
// batched-inference tier; the time includes the wait for the fused round.
type timedScheduler struct {
	inner core.ModelScheduler
	stats *callStats
}

// Join implements core.ModelScheduler.
func (s *timedScheduler) Join() { s.inner.Join() }

// Leave implements core.ModelScheduler.
func (s *timedScheduler) Leave() { s.inner.Leave() }

// DeltaScores implements core.ModelScheduler.
func (s *timedScheduler) DeltaScores(m models.DeltaModel, sample *models.Sample) []float64 {
	start := time.Now()
	out := s.inner.DeltaScores(m, sample)
	s.stats.add(time.Since(start))
	return out
}

// TopPages implements core.ModelScheduler.
func (s *timedScheduler) TopPages(m models.PageModel, sample *models.Sample, k int, dst []uint64) []uint64 {
	start := time.Now()
	out := s.inner.TopPages(m, sample, k, dst)
	s.stats.add(time.Since(start))
	return out
}
