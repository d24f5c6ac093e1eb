package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of sorted by the
// nearest-rank rule: the smallest value with at least p·n values at or below
// it. Nearest rank never interpolates, so a reported p99 is always a latency
// some operation actually had. An empty sample yields 0.
func percentile(sorted []int64, p float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(n) - 1e-9)) // 0.99·100 is 99.00000000000001 in floating point
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// sortedCopy returns a sorted copy of v, leaving v in arrival order.
func sortedCopy(v []int64) []int64 {
	out := append([]int64(nil), v...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// medianInt is the p50 of an unsorted sample.
func medianInt(v []int64) int64 { return percentile(sortedCopy(v), 0.5) }

// medianFloat is the middle value of v (mean of the two middle values for
// an even count). An empty sample yields 0.
func medianFloat(v []float64) float64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// windowP99Median buckets samples into windows of windowNs by their start
// time and returns the median of the per-window p99s, with the number of
// windows used. One noisy-neighbour second then moves one window, not the
// metric. Windows holding fewer than minPerWindow samples (the ragged last
// one) are left out so every p99 has samples beyond it.
func windowP99Median(start, latency []int64, windowNs int64, minPerWindow int) (p99 int64, windows int) {
	if len(start) == 0 || windowNs <= 0 {
		return 0, 0
	}
	first := start[0]
	for _, s := range start {
		if s < first {
			first = s
		}
	}
	byWindow := map[int64][]int64{}
	for i, s := range start {
		w := (s - first) / windowNs
		byWindow[w] = append(byWindow[w], latency[i])
	}
	var p99s []int64
	for _, lat := range byWindow {
		if len(lat) < minPerWindow {
			continue
		}
		p99s = append(p99s, percentile(sortedCopy(lat), 0.99))
	}
	if len(p99s) == 0 {
		return 0, 0
	}
	return medianInt(p99s), len(p99s)
}

// spread is the distance between the first and the third quartile of v as a
// share of its median, the quartiles as Python's statistics.quantiles(v, n=4)
// gives them (the driver's measure of run-to-run noise). Fewer than two
// values, or a median of 0, yield 0.
func spread(v []float64) float64 {
	n := len(v)
	med := medianFloat(v)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		// The exclusive method: the i-th of 4 cut points sits at position
		// i·(n+1)/4 of the sorted sample, counted from 1, interpolated.
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / med
}

// windowP99 is the tail latency of a phase: the median over its one-second
// windows of each window's p99, or the plain p99 when the phase is shorter
// than one full window of 1000 samples.
func windowP99(start, lat []int64) int64 {
	if p99, windows := windowP99Median(start, lat, 1_000_000_000, 1000); windows > 0 {
		return p99
	}
	return percentile(sortedCopy(lat), 0.99)
}

// relDiff is (b−a)/a, the change from a to b as a share of a; 0 when a is 0.
func relDiff(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (b - a) / a
}

// span is one timed interval of a traced operation. Parent is the index of
// the enclosing span in the same slice, −1 for the root.
type span struct {
	Name   string
	Parent int
	Start  int64
	End    int64
}

// selfTimes returns, for each span, its duration minus the part of its
// interval that its direct children cover. Children may overlap each other
// or stick out of the parent (two goroutines' clocks read in either order);
// the covered part is the union of the child intervals clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}
