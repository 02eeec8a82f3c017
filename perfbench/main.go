// Command perfbench is the end-to-end benchmark of the MPGraph pipeline and
// its serving daemon. It runs one named workload against the public entry
// points of internal/experiments, sim, prefetch, core and serve, checks the
// outputs, and prints one JSON result as the last line of standard output:
// the end-to-end metrics, or with -trace 1 the per-layer metrics of a
// traced run. README.md describes the workloads and every metric.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload offline-sweep --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// runConfig is one run's settings.
type runConfig struct {
	workload string
	seed     int64
	measure  time.Duration
	root     string
	// tr records spans in a traced run; nil otherwise.
	tr *tracer
	// cal samples the host's speed during the run.
	cal *calibration
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(runConfig) (*outcome, error){
	"offline-sweep": func(rc runConfig) (*outcome, error) { return runSim(offlineSweepSpec(rc.seed), rc) },
	"classic-sim":   func(rc runConfig) (*outcome, error) { return runSim(classicSimSpec(rc.seed), rc) },
	"serve-stream":  func(rc runConfig) (*outcome, error) { return runServe(serveStreamSpec, rc) },
	"serve-churn":   func(rc runConfig) (*outcome, error) { return runServe(serveChurnSpec, rc) },
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workload = flag.String("workload", "", "workload to run (offline-sweep, classic-sim, serve-stream, serve-churn)")
		seed     = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Float64("seconds", 10, "length of the measured phase")
		traceOn  = flag.Int("trace", 0, "1 runs traced and reports per-layer metrics")
		root     = flag.String("root", ".", "repository root; outputs go under <root>/.bench_build/perfbench")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (want one of %v)", *workload, names)
	}
	if *seconds <= 0 || *traceOn != 0 && *traceOn != 1 {
		return fmt.Errorf("need -seconds > 0 and -trace 0 or 1")
	}
	rc := runConfig{
		workload: *workload,
		seed:     *seed,
		measure:  time.Duration(*seconds * float64(time.Second)),
		root:     *root,
		cal:      &calibration{},
	}
	if *traceOn == 1 {
		rc.tr = newTracer()
	}

	out, err := fn(rc)
	if err != nil {
		return fmt.Errorf("%s: %w", *workload, err)
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed}
	if rc.tr == nil {
		normalize(out.metrics, rc.cal)
		res.Metrics, err = fill(endToEnd, out.metrics, false)
	} else {
		out.metrics["bench.calibration_ms"] = ms(rc.cal.median())
		m := out.metrics
		m["graph.generate_s"] = rc.tr.total("graph.generate").Seconds()
		m["frameworks.trace_s"] = rc.tr.total("frameworks.trace").Seconds()
		m["models.suite_s"] = rc.tr.total("models.suite").Seconds()
		m["resilience.resume_s"] = rc.tr.total("resilience.resume").Seconds()
		m["trace.spans"] = float64(rc.tr.len())
		if err := writeSpans(rc); err != nil {
			return err
		}
		res.Metrics, err = fill(perLayer, m, true)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d attempted=%d failed=%d failed_share=%.4f\n",
		*workload, *seed, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// writeSpans dumps the traced run's spans under the build directory.
func writeSpans(rc runConfig) error {
	dir := filepath.Join(rc.root, ".bench_build", "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", rc.workload, rc.seed))
	if err := rc.tr.write(path); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", rc.tr.len(), path)
	return nil
}

// normalize scales the CPU-time metrics to the quiet host's speed (see
// calibration) and logs the raw values.
func normalize(m map[string]float64, cal *calibration) {
	scale := cal.scale()
	fmt.Fprintf(os.Stderr, "perfbench: calibration median %v, scale %.4f; raw setup_s=%.4g events_per_cpu_s=%.6g feed_cpu_p50_ms=%.4g feed_cpu_p95_ms=%.4g\n",
		cal.median(), scale, m["setup_s"], m["events_per_cpu_s"], m["feed_cpu_p50_ms"], m["feed_cpu_p95_ms"])
	for _, name := range []string{"setup_s", "feed_cpu_p50_ms", "feed_cpu_p95_ms"} {
		m[name] *= scale
	}
	m["events_per_cpu_s"] /= scale
}
