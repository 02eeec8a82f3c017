package main

import (
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// referenceCPU is the nominal cost of one calibration sample: a round
// figure between what it cost on the 2-vCPU x86-64 benchmark VM when quiet
// (about 4.7 ms) and under load (up to 8 ms). CPU-time metrics are scaled
// by referenceCPU over the run's median sample, so they read as CPU time on
// a host where the sample costs 6 ms.
const referenceCPU = 6 * time.Millisecond

// calibration measures how fast the host runs fixed reference work right
// now. On a shared VM the neighbours' load changes the speed of the virtual
// CPUs — through stolen time and through shared cores and caches — by tens
// of percent within minutes; the program's own CPU time moves with it.
// Samples are taken on the threads doing the measured work, between
// operations, so they see the load the work sees. Samples taken only while
// the benchmark was idle missed load that came and went during the
// measured phase and once left a run at half speed uncorrected.
type calibration struct {
	mu      sync.Mutex
	samples []time.Duration
	sink    float64 // keeps the reference work from being optimised away
}

// sample runs the reference work once on the calling thread and records
// its CPU time.
func (c *calibration) sample() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := cpuTime(threadClock)
	v := referenceWork()
	d := cpuTime(threadClock) - start
	c.mu.Lock()
	c.sink += v
	c.samples = append(c.samples, d)
	c.mu.Unlock()
}

// scale returns referenceCPU over the median sample (1 without samples).
func (c *calibration) scale() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.samples) == 0 {
		return 1
	}
	return float64(referenceCPU) / float64(median(append([]time.Duration(nil), c.samples...)))
}

// median returns the median sample.
func (c *calibration) median() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return median(append([]time.Duration(nil), c.samples...))
}

var (
	calibrationOnce  sync.Once
	calibrationChain []uint32
)

// referenceWork mixes the two kinds of work the workloads do: dense
// float64 multiply-adds, as in model inference, and dependent loads that
// miss the caches, as in the simulator's tables. It is fixed: it does not
// call into the program under test.
func referenceWork() float64 {
	calibrationOnce.Do(func() {
		// A single random cycle over 4 MB, so every load depends on the
		// previous one and lands outside the caches.
		const n = 1 << 20
		perm := rand.New(rand.NewSource(1)).Perm(n)
		calibrationChain = make([]uint32, n)
		for i := range perm {
			calibrationChain[perm[i]] = uint32(perm[(i+1)%n])
		}
	})
	const dim = 48
	var a, b, c [dim * dim]float64
	for i := range a {
		a[i] = float64(i%7) * 0.25
		b[i] = float64(i%5) * 0.5
	}
	for rep := 0; rep < 8; rep++ {
		for i := 0; i < dim; i++ {
			for k := 0; k < dim; k++ {
				aik := a[i*dim+k]
				for j := 0; j < dim; j++ {
					c[i*dim+j] += aik * b[k*dim+j]
				}
			}
		}
	}
	p := uint32(0)
	for i := 0; i < 40_000; i++ {
		p = calibrationChain[p]
	}
	return c[dim+1] + float64(p)
}
