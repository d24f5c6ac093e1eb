package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// WritePrometheus writes every family in the registry to w in the
// Prometheus text exposition format (version 0.0.4). Families are emitted
// in name order and series in label-value order, so output for a given
// registry state is deterministic. HELP and TYPE lines are emitted even
// for families with no samples yet: registering a family is enough to make
// it scrape-visible, which is what lets metrics-smoke verify the inventory
// on a freshly booted system.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.sortedFamilies() {
		if _, err := fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		series, fn := f.sortedSeries()
		if fn != nil {
			if _, err := fmt.Fprintf(bw, "%s %s\n", f.name, formatFloat(fn())); err != nil {
				return err
			}
			continue
		}
		for _, s := range series {
			if err := writeSeries(bw, f, s); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

func writeSeries(w io.Writer, f *family, s *series) error {
	labels := renderLabels(f.labels, s.labelValues)
	switch f.typ {
	case typeCounter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, labels, s.counter.Value())
		return err
	case typeGauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, labels, formatFloat(s.gauge.Value()))
		return err
	case typeHistogram:
		h := s.hist
		cum := uint64(0)
		for i, ub := range h.upper {
			cum += h.counts[i].Load()
			bl := renderLabels(append(f.labels, "le"), append(s.labelValues, formatFloat(ub)))
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, bl, cum); err != nil {
				return err
			}
		}
		cum += h.inf.Load()
		bl := renderLabels(append(f.labels, "le"), append(s.labelValues, "+Inf"))
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, bl, cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labels, formatFloat(h.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, labels, h.Count())
		return err
	}
	return nil
}

func renderLabels(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// Label is one name/value pair on a sample.
type Label struct {
	Name  string
	Value string
}

// BucketSnapshot is one cumulative histogram bucket.
type BucketSnapshot struct {
	// UpperBound is the inclusive upper limit; +Inf for the last bucket.
	UpperBound float64
	// CumulativeCount counts observations <= UpperBound.
	CumulativeCount uint64
}

// SampleSnapshot is one series of a family at snapshot time.
type SampleSnapshot struct {
	// Labels are the series' label pairs, in registration order.
	Labels []Label
	// Value holds the counter or gauge value (counters as exact floats up
	// to 2^53; use families' counters directly for exact uint64 needs).
	Value float64
	// Buckets, Sum and Count are set for histograms only.
	Buckets []BucketSnapshot
	Sum     float64
	Count   uint64
}

// FamilySnapshot is one metric family at snapshot time.
type FamilySnapshot struct {
	Name    string
	Help    string
	Type    string // "counter", "gauge" or "histogram"
	Samples []SampleSnapshot
}

// Snapshot returns every family as plain structs, in the same deterministic
// order as WritePrometheus. Tests assert on this instead of parsing text.
func (r *Registry) Snapshot() []FamilySnapshot {
	var out []FamilySnapshot
	for _, f := range r.sortedFamilies() {
		fs := FamilySnapshot{Name: f.name, Help: f.help, Type: string(f.typ)}
		series, fn := f.sortedSeries()
		if fn != nil {
			fs.Samples = append(fs.Samples, SampleSnapshot{Value: fn()})
			out = append(out, fs)
			continue
		}
		for _, s := range series {
			sample := SampleSnapshot{}
			for i, n := range f.labels {
				sample.Labels = append(sample.Labels, Label{Name: n, Value: s.labelValues[i]})
			}
			switch f.typ {
			case typeCounter:
				sample.Value = float64(s.counter.Value())
			case typeGauge:
				sample.Value = s.gauge.Value()
			case typeHistogram:
				h := s.hist
				cum := uint64(0)
				for i, ub := range h.upper {
					cum += h.counts[i].Load()
					sample.Buckets = append(sample.Buckets, BucketSnapshot{UpperBound: ub, CumulativeCount: cum})
				}
				cum += h.inf.Load()
				sample.Buckets = append(sample.Buckets, BucketSnapshot{UpperBound: infUpperBound, CumulativeCount: cum})
				sample.Sum = h.Sum()
				sample.Count = h.Count()
			}
			fs.Samples = append(fs.Samples, sample)
		}
		out = append(out, fs)
	}
	return out
}

// Sum is how Go code reads a count back: the total over the named family's
// series, or — given label values — over the series whose leading label
// values equal them, the way a PromQL sum() over a scrape would. Counters
// and gauges contribute their value (gauges hold integral counts here:
// backlogs, connections, capacities), histograms their observation count.
// Reading a family nobody registered panics, like a conflicting
// registration: a misspelt name must not read as zero.
func (r *Registry) Sum(name string, labelValues ...string) uint64 {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		panic(fmt.Sprintf("obs: Sum of unregistered family %q", name))
	}
	var total uint64
	f.mu.RLock()
	fn := f.fn
	for _, s := range f.children {
		if len(labelValues) > len(s.labelValues) || !equalStrings(s.labelValues[:len(labelValues)], labelValues) {
			continue
		}
		switch f.typ {
		case typeCounter:
			total += s.counter.Value()
		case typeGauge:
			total += uint64(s.gauge.Value())
		case typeHistogram:
			total += s.hist.Count()
		}
	}
	f.mu.RUnlock()
	if fn != nil { // a gauge func has no series; sample it outside the lock
		return uint64(fn())
	}
	return total
}

// infUpperBound marks the +Inf bucket in snapshots.
var infUpperBound = math.Inf(1)

// MetricsHandler serves the registry in Prometheus text format; mount it
// on GET /metrics.
func MetricsHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// A write error here means the scraper went away; nothing to do.
		_ = r.WritePrometheus(w)
	})
}

// TraceHandler serves the tracer's canonical text dump; mount it on
// GET /trace. A nil tracer reports 503 so operators can tell "tracing off"
// from "no spans yet".
func TraceHandler(t *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		if t == nil {
			http.Error(w, "tracing disabled", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = t.WriteText(w)
	})
}
