package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sync"
	"testing"
	"time"

	"mpgraph/internal/core"
	"mpgraph/internal/experiments"
	"mpgraph/internal/prefetch"
	"mpgraph/internal/serve"
	"mpgraph/internal/sim"
	"mpgraph/internal/trace"
)

func syntheticLLC(n int) []trace.Access {
	llc := make([]trace.Access, n)
	for i := range llc {
		llc[i] = trace.Access{Addr: uint64(i) * 64, PC: 0x400000 + uint64(i%7)*4, Core: uint8(i % 4)}
	}
	return llc
}

func TestSessionEventsFollowSeed(t *testing.T) {
	llc := syntheticLLC(50_000)
	for _, size := range []int{serveStreamSpec.sessionEvents, serveChurnSpec.sessionEvents} {
		differ := 0
		for k := 0; k < 64; k++ {
			a := sessionEvents(llc, 7, k, size)
			if b := sessionEvents(llc, 7, k, size); !reflect.DeepEqual(a, b) {
				t.Fatalf("size %d session %d: same seed gave different events", size, k)
			}
			if len(a) != size {
				t.Fatalf("size %d session %d: got %d events", size, k, len(a))
			}
			if seededOffset(7, k, len(llc), size) != seededOffset(7, k, len(llc), size) {
				t.Fatalf("size %d session %d: same seed gave different offsets", size, k)
			}
			if !reflect.DeepEqual(a, sessionEvents(llc, 8, k, size)) {
				differ++
			}
		}
		if differ < 60 {
			t.Errorf("size %d: only %d of 64 sessions change with the seed", size, differ)
		}
	}
}

func TestSessionOffsetInRange(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		for k := 0; k < 200; k++ {
			if off := seededOffset(seed, k, 5000, 4096); off < 0 || off > 5000-4096 {
				t.Fatalf("seed %d session %d: offset %d out of range", seed, k, off)
			}
		}
	}
}

// TestTimedMPGraphMatchesBare checks that the traced pass's wrapping — a
// timer between the guard and MPGraph, and one around the guard — leaves
// the simulated metrics unchanged.
func TestTimedMPGraphMatchesBare(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a small model suite")
	}
	opt := experiments.DefaultOptions()
	opt.GraphScale = 10
	opt.TraceIterations = 3
	opt.MaxTestAccesses = 8_000
	opt.TrainSamples = 100
	opt.Epochs = 1
	r := experiments.NewRunner(opt)
	w := experiments.Workload{Framework: "gpop", App: "pr", Dataset: "rmat"}

	pfs, err := r.Prefetchers(w)
	if err != nil {
		t.Fatal(err)
	}
	var bare sim.Prefetcher
	for _, pf := range pfs {
		if pf.Name() == "mpgraph" {
			bare = pf
		}
	}
	if bare == nil {
		t.Fatal("no mpgraph in the comparison set")
	}
	mp, err := r.MPGraph(w, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	inner := &callStats{keep: true}
	outer := &callStats{}
	guarded := prefetch.NewGuarded(newTimedPrefetcher(mp, inner), prefetch.NewBO(prefetch.DefaultBOConfig()), prefetch.GuardConfig{}, r.Events)
	timed := newTimedPrefetcher(guarded, outer)

	want, _, err := r.Simulate(w, bare)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := r.Simulate(w, timed)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("timed MPGraph simulated differently:\n got %v\nwant %v", got, want)
	}
	if calls := int64(want.LLCHits + want.LLCMisses); outer.calls != calls || inner.calls != calls || len(inner.perCall) != int(calls) {
		t.Errorf("counted %d outer / %d inner calls, want %d", outer.calls, inner.calls, calls)
	}
	if inner.transitions != mp.Transitions {
		t.Errorf("counted %d transitions, MPGraph reports %d", inner.transitions, mp.Transitions)
	}
}

var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !validName.MatchString(d.Name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric name %q is used twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("metric %s: better is %q", d.Name, d.Better)
		}
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(perLayer))
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric lists the
// program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from the program's:\n got %+v\nwant %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the program's")
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is unknown to the program", w.Name)
		}
	}
}

func TestFillRequiresEndToEnd(t *testing.T) {
	if _, err := fill(endToEnd, map[string]float64{"setup_s": 1}, false); err == nil {
		t.Error("fill accepted a run missing end-to-end metrics")
	}
	got, err := fill(perLayer, map[string]float64{}, true)
	if err != nil || len(got) != len(perLayer) {
		t.Errorf("per-layer fill: %d metrics, err %v", len(got), err)
	}
}

func TestPercentileAndMedian(t *testing.T) {
	ds := make([]time.Duration, 1000)
	for i := range ds {
		ds[len(ds)-1-i] = time.Duration(i + 1)
	}
	if p := percentile(ds, 99); p != 990 {
		t.Errorf("p99 = %d, want 990", p)
	}
	if p := percentile(ds, 50); p != 500 {
		t.Errorf("p50 = %d, want 500", p)
	}
	if m := median([]time.Duration{4, 1, 3, 2}); m != 2 {
		t.Errorf("median = %d, want 2", m)
	}
}

// TestCalibrationConcurrent samples from two goroutines at once, as the
// sweep workers and the serve clients do; run it under -race.
func TestCalibrationConcurrent(t *testing.T) {
	var cal calibration
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				cal.sample()
			}
		}()
	}
	wg.Wait()
	if len(cal.samples) != 6 || cal.median() <= 0 || cal.scale() <= 0 {
		t.Errorf("%d samples, median %v, scale %v", len(cal.samples), cal.median(), cal.scale())
	}
}

func TestScore(t *testing.T) {
	events := []serve.Event{{Addr: 0}, {Addr: 64}, {Addr: 128}, {Addr: 0}}
	// After event 1 predict blocks 1 (demanded by event 2) and 9 (never).
	body := []byte(`{"session":"s","seq":1,"prefetch":[1,9]}` + "\n")
	acc, pred, cov, err := score(events, body)
	if err != nil {
		t.Fatal(err)
	}
	if acc != 1 || pred != 2 || cov != 1 {
		t.Errorf("score = %d accurate / %d predicted / %d covered, want 1/2/1", acc, pred, cov)
	}
}
