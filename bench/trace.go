package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// traceFileOps caps how many operations' spans go to the trace file; the
// stage statistics use every traced operation.
const traceFileOps = 5000

// stageMetrics files the per-layer budget of the median operation. Stage
// medians taken one by one do not add up to the end-to-end median — within a
// burst an item that waits less for its own send waits longer for the
// broker's reader to get a CPU — so the budget is taken over the operations
// in the middle tenth by end-to-end latency (45th to 55th percentile): each
// stage metric is the stage's mean over that band, in µs, and the stages of
// one operation are contiguous, so they sum to the band's mean end-to-end
// latency, which is the median to within the band's width.
//
// Also filed: the traced pass's own end-to-end median; stage_sum_share, the
// stage sum ÷ the band's mean end-to-end latency (1 when every layer is
// measured; less when a gap between stages is nobody's); and
// unattributed_share, root self time ÷ root time over all operations. Each
// trace is one operation's spans with the root first.
func stageMetrics(m *metricSet, traces [][]span, stages []stage) {
	if len(traces) == 0 {
		return
	}
	order := make([]int, len(traces))
	roots := make([]int64, len(traces))
	var rootTotal, rootSelf int64
	for i, tr := range traces {
		order[i] = i
		roots[i] = tr[0].End - tr[0].Start
		rootTotal += roots[i]
		rootSelf += selfTimes(tr)[0]
	}
	sort.Slice(order, func(a, b int) bool { return roots[order[a]] < roots[order[b]] })
	lo, hi := len(order)*45/100, max(len(order)*55/100, len(order)*45/100+1)
	band := order[lo:min(hi, len(order))]

	byName := map[string]int64{}
	var bandRoot int64
	for _, i := range band {
		bandRoot += roots[i]
		for _, s := range traces[i][1:] {
			byName[s.Name] += max(s.End-s.Start, 0)
		}
	}
	n := float64(len(band))
	var sum float64
	for _, st := range stages {
		mean := float64(byName[st.Span]) / n
		sum += mean
		m.set(st.Metric, mean/1e3, len(band))
	}
	m.set("harness.traced_latency_p50_ms", float64(medianInt(roots))/1e6, len(roots))
	if bandRoot > 0 {
		m.set("harness.stage_sum_share", sum/(float64(bandRoot)/n), len(band))
	}
	if rootTotal > 0 {
		m.set("harness.unattributed_share", float64(rootSelf)/float64(rootTotal), len(roots))
	}
}

// traceSpan is the file form of a span.
type traceSpan struct {
	Trace  int    `json:"trace"`
	Span   int    `json:"span"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// writeTrace writes the spans to <out>/trace_<workload>.json, one JSON
// object per line: trace id (one per operation), span id, parent span id
// (−1 for the root), name, and start/end in ns since process start.
func writeTrace(workload string, traces [][]span) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(outDir, "trace_"+workload+".json"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for t, tr := range traces {
		for i, s := range tr {
			if err := enc.Encode(traceSpan{Trace: t, Span: i, Parent: s.Parent, Name: s.Name, Start: s.Start, End: s.End}); err != nil {
				_ = f.Close() // the encode error is the one to report
				return fmt.Errorf("write trace: %w", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}
