package main

import (
	"runtime"
	"time"
)

// A probe times one public function of one layer in a tight loop, on the
// workload's own generated inputs, on an otherwise idle deployment.
type probe struct {
	// Name is the metric reported for time per call (empty: none).
	Name string
	// AllocName is the metric reported for heap allocations per call, from
	// runtime.MemStats.Mallocs deltas (empty: none).
	AllocName string
	// Scale divides nanoseconds into the metric's unit (0 means 1: ns).
	Scale float64
	// Run makes n calls and returns the time they took.
	Run func(n int) time.Duration
	// MaxN caps the calls per repetition for a probe whose untimed work per
	// call dwarfs the timed part (0: no cap); its repetitions are then
	// shorter than the usual minimum.
	MaxN int
	// Fixed, with N samples, is a metric computed rather than timed.
	Fixed float64
	N     int
}

const (
	probeReps   = 5
	probeMinRun = 100 * time.Millisecond
)

// timed wraps a loop body that needs no untimed sections.
func timed(loop func(n int)) func(n int) time.Duration {
	return func(n int) time.Duration {
		start := nowNs()
		loop(n)
		return time.Duration(nowNs() - start)
	}
}

// runProbe reports the median over probeReps repetitions of at least minRun
// each; n in the result is the number of calls behind one repetition.
func runProbe(p probe, minRun time.Duration) (perCall, allocs float64, n int) {
	if p.Run == nil {
		return p.Fixed, 0, p.N
	}
	// Calibrate: grow n until one repetition lasts minRun.
	n = 64
	for {
		d := p.Run(n)
		if d >= minRun || n >= 1<<28 || (p.MaxN > 0 && n >= p.MaxN) {
			break
		}
		next := n * 2
		if d > 0 {
			next = int(float64(n)*float64(minRun)/float64(d)*1.2) + 1
		}
		n = min(max(next, n+1), n*100)
		if p.MaxN > 0 {
			n = min(n, p.MaxN)
		}
	}
	times := make([]float64, probeReps)
	mallocs := make([]float64, probeReps)
	var before, after runtime.MemStats
	for r := range times {
		runtime.ReadMemStats(&before)
		d := p.Run(n)
		runtime.ReadMemStats(&after)
		times[r] = float64(d.Nanoseconds()) / float64(n)
		mallocs[r] = float64(after.Mallocs-before.Mallocs) / float64(n)
	}
	scale := p.Scale
	if scale == 0 {
		scale = 1
	}
	return medianFloat(times) / scale, medianFloat(mallocs), n
}

// runProbes runs each probe and files its results.
func runProbes(probes []probe, minRun time.Duration, out *metricSet) {
	for _, p := range probes {
		perCall, allocs, n := runProbe(p, minRun)
		if p.Name != "" {
			out.set(p.Name, perCall, n)
		}
		if p.AllocName != "" {
			out.set(p.AllocName, allocs, n)
		}
	}
}
